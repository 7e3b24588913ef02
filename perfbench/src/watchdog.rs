//! A watchdog for hung calls into the engine.
//!
//! The engine can deadlock (see "Known defects" in `perfbench/README.md`),
//! and a hung call would keep the run from ever printing its result. Every
//! call the benchmark makes into the program runs under [`guard`]; a
//! background thread polls the start time of the open call and, once one
//! has run longer than the limit, prints a result line with
//! `"correct": false` and ends the process with exit code 1.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How often the watchdog looks at the open call.
const POLL: Duration = Duration::from_millis(100);

static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Start of the open guarded call, in microseconds since `EPOCH` plus one;
/// 0 while no call is open.
static OPEN_SINCE: AtomicU64 = AtomicU64::new(0);
/// Timed requests attempted and failed so far, for the result line of a
/// hung run.
static ATTEMPTED: AtomicUsize = AtomicUsize::new(0);
static FAILED: AtomicUsize = AtomicUsize::new(0);

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Starts the watchdog thread: a call open for longer than `limit` ends
/// the run.
pub fn start(limit: Duration) {
    now_us();
    std::thread::spawn(move || loop {
        std::thread::sleep(POLL);
        let since = OPEN_SINCE.load(Ordering::Relaxed);
        if since != 0 && now_us().saturating_sub(since - 1) > limit.as_micros() as u64 {
            eprintln!(
                "watchdog: a call into the engine has not returned after {} s; the run is \
                 marked incorrect",
                limit.as_secs()
            );
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                ATTEMPTED.load(Ordering::Relaxed) + 1,
                FAILED.load(Ordering::Relaxed) + 1,
            );
            std::process::exit(1);
        }
    });
}

/// Runs `f` as the open call.
pub fn guard<R>(f: impl FnOnce() -> R) -> R {
    OPEN_SINCE.store(now_us() + 1, Ordering::Relaxed);
    let r = f();
    OPEN_SINCE.store(0, Ordering::Relaxed);
    r
}

/// Records one finished timed request.
pub fn note(ok: bool) {
    ATTEMPTED.fetch_add(1, Ordering::Relaxed);
    if !ok {
        FAILED.fetch_add(1, Ordering::Relaxed);
    }
}
