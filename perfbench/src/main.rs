//! Seeded closed-loop benchmark of the `gact-engine` service.
//!
//! ```text
//! gact-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread sends a seeded request stream to one long-lived
//! `Engine` (a fresh one per request on `sweep_cold`) and checks every
//! reply against the hand-written truth table in `truth.rs`. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it also
//! replays the same requests layer by layer (`replay.rs`) and prints the
//! per-layer metrics instead. The last line of standard output is one
//! JSON object; see `perfbench/README.md` for every metric.

mod alloc;
mod probe;
mod replay;
mod truth;
mod watchdog;
mod workload;

use std::time::{Duration, Instant};

use gact_engine::Engine;

use crate::alloc::CountingAlloc;
use crate::workload::{
    issue, workload, CacheTraffic, Reply, Request, SplitMix, Workload, CHECKPOINT_INTERVAL,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Set-ups (an engine built and its warm-up pass sent) per run before
/// the timed phase, and spread through it; `setup_s` is the median of all
/// of them. One set-up takes from 30 ms to 0.5 s, and the host's speed
/// changes from one second to the next, so set-ups timed at one moment
/// would give `setup_s` that moment's speed rather than the run's.
const SETUP_REPEATS_BEFORE: usize = 4;
const SETUP_REPEATS_DURING: usize = 5;

/// Longest any one call into the engine may take before the run is
/// declared hung. The slowest request (the budget-overrun instance of
/// `solve_governed`) takes about 13 s.
const WATCHDOG_LIMIT: Duration = Duration::from_secs(60);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One timed request.
struct Sample {
    class: usize,
    latency: Duration,
    /// `Ok` and consistent with the truth table.
    ok: bool,
    /// Share of the reply's verdicts that are definite answers.
    decided: f64,
    /// For governed requests: reported effort within cap + one
    /// checkpoint interval per worker.
    budget_met: Option<bool>,
}

fn judge(
    request: &Request,
    result: Result<Reply, gact_engine::EngineError>,
    threads: usize,
) -> (bool, f64, Option<bool>, Option<Reply>) {
    let reply = match result {
        Ok(reply) => reply,
        Err(e) => {
            eprintln!("request failed: {e}");
            return (false, 0.0, request.cap().map(|_| false), None);
        }
    };
    let keys = request.truth_keys();
    let mut ok = keys.len() == reply.verdicts.len();
    for ((task, model), verdict) in keys.iter().zip(&reply.verdicts) {
        if let Err(why) = truth::check(*task, *model, verdict) {
            eprintln!("truth table: {why}");
            ok = false;
        }
    }
    let decided = reply.verdicts.iter().filter(|v| v.is_decided()).count() as f64
        / reply.verdicts.len().max(1) as f64;
    let budget_met = request
        .cap()
        .map(|cap| reply.assignments <= cap + threads as u64 * CHECKPOINT_INTERVAL);
    (ok, decided, budget_met, Some(reply))
}

fn fresh_engine(threads: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .expect("the machine reports at least one core")
        .build()
}

/// Process CPU time (user + system, all threads) from `/proc/self/stat`.
fn process_cpu() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(Duration::from_millis(ticks * 10))
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// Metrics printed by name, in order, with units.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The timed phase's outcome, shared by both modes.
struct Timed {
    /// Allocated outside the heap counts (see `run_timed`); drop it with
    /// `ALLOC.uncounted`.
    samples: Vec<Sample>,
    wall: Duration,
    cpu: Option<Duration>,
    peak_heap: usize,
    /// Cache traffic of the timed phase.
    cache: CacheTraffic,
    /// The first cycle and the engine's replies to it, replayed and
    /// compared by the traced mode.
    first_cycle: Vec<(usize, Request)>,
    first_replies: Vec<Option<Reply>>,
}

/// The generator of the warm-up pass: its own stream, so the timed
/// requests do not depend on how often set-up ran.
fn warmup_rng(seed: u64) -> SplitMix {
    SplitMix::new(seed ^ 0x5e70_0000_0000_0000)
}

/// The timed phase. `set_up` runs `setups` times at evenly spaced
/// moments of it (and after it, for those the phase ended before): the
/// time it takes is left out of the phase's wall time, and the heap it
/// uses out of its peak. Its CPU time is not left out of `cpu`, so the
/// traced mode, which reports `cpu`, passes no set-ups.
fn run_timed(
    w: &Workload,
    args: &Args,
    threads: usize,
    engine: Engine,
    setups: usize,
    set_up: &mut dyn FnMut(),
) -> Timed {
    let sweep = || fresh_engine(threads);
    let mut rng = SplitMix::new(args.seed);
    let mut samples = Vec::new();
    let mut first_cycle = None;
    let mut first_replies = Vec::new();
    let mut cache = CacheTraffic::default();
    let before = CacheTraffic::of(&engine.stats());
    ALLOC.reset_peak();
    let mut peak_heap = 0;
    let mut setups_done = 0;
    let mut paused = Duration::ZERO;
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let elapsed = |paused: Duration| t0.elapsed().saturating_sub(paused).as_secs_f64();
    let mut cycles = 0u32;
    // Whole cycles, ending at the cycle boundary nearest `--seconds`,
    // with at least `min_samples` requests.
    while samples.len() < w.min_samples()
        || cycles == 0
        || elapsed(paused) * (1.0 + 0.5 / f64::from(cycles)) < args.seconds
    {
        let cycle = w.cycle(&mut rng);
        for (class, request) in &cycle {
            if setups_done < setups
                && elapsed(paused) >= args.seconds * (setups_done + 1) as f64 / (setups + 1) as f64
            {
                peak_heap = peak_heap.max(ALLOC.peak_bytes());
                let t = Instant::now();
                set_up();
                paused += t.elapsed();
                ALLOC.reset_peak();
                setups_done += 1;
            }
            let t = Instant::now();
            let result = watchdog::guard(|| issue(&engine, &sweep, request));
            let latency = t.elapsed();
            let (ok, decided, budget_met, reply) = judge(request, result, threads);
            watchdog::note(ok);
            if let Some(traffic) = reply.as_ref().and_then(|r| r.cache) {
                cache.add(traffic);
            }
            if cycles == 0 {
                first_replies.push(reply);
            }
            // The records grow with the machine's speed, so they stay out
            // of `peak_heap_mb`.
            ALLOC.uncounted(|| {
                samples.push(Sample {
                    class: *class,
                    latency,
                    ok,
                    decided,
                    budget_met,
                })
            });
        }
        first_cycle.get_or_insert(cycle);
        cycles += 1;
    }
    let wall = t0.elapsed().saturating_sub(paused);
    let cpu = process_cpu().zip(cpu0).map(|(b, a)| b.saturating_sub(a));
    let peak_heap = peak_heap.max(ALLOC.peak_bytes());
    cache.add(CacheTraffic::of(&engine.stats()).since(before));
    drop(engine);
    for _ in setups_done..setups {
        set_up();
    }
    Timed {
        samples,
        wall,
        cpu,
        peak_heap,
        cache,
        first_cycle: first_cycle.expect("at least one cycle runs"),
        first_replies,
    }
}

fn main() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A child of the traced mode's shuffled-sweep probe (`probe.rs`).
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, n] = argv.as_slice() {
        if flag == "--probe-sweep" {
            match n.parse::<u64>() {
                Ok(n) => probe::child(n, threads),
                Err(e) => {
                    eprintln!("--probe-sweep: {e}");
                    std::process::exit(2);
                }
            }
            return;
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: gact-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "unknown workload `{}` (sweep_cold, solve_warm, verify_warm, solve_governed)",
            args.workload
        );
        std::process::exit(2);
    };
    eprintln!("workload {} seed {} threads {threads}", w.name, args.seed);
    watchdog::start(WATCHDOG_LIMIT);

    // Set-up: build the engine and fill its caches; the last engine built
    // before the timed phase serves it.
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS_BEFORE + SETUP_REPEATS_DURING);
    let mut setup_ok = true;
    let mut set_up = || {
        let mut rng = warmup_rng(args.seed);
        let t0 = Instant::now();
        let e = fresh_engine(threads);
        for request in w.warmup(&mut rng) {
            let result = watchdog::guard(|| issue(&e, &|| fresh_engine(threads), &request));
            setup_ok &= judge(&request, result, threads).0;
        }
        setup_times.push(t0.elapsed().as_secs_f64());
        e
    };
    let mut engine = set_up();
    for _ in 1..SETUP_REPEATS_BEFORE {
        drop(engine);
        engine = set_up();
    }
    // The traced mode does not report `setup_s`.
    let during = if args.trace { 0 } else { SETUP_REPEATS_DURING };
    let timed = run_timed(&w, &args, threads, engine, during, &mut || drop(set_up()));
    eprintln!(
        "  set-up passes (s): {:?}",
        setup_times
            .iter()
            .map(|t| (t * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    let setup_s = median(&mut setup_times);

    let n = timed.samples.len();
    let ok = timed.samples.iter().filter(|s| s.ok).count();
    let mut correct = setup_ok && ok == n;
    let mut lat: Vec<f64> = timed
        .samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    lat.sort_by(f64::total_cmp);
    let p50 = percentile(&lat, 50.0);
    let tail = percentile(&lat, w.tail_pct);
    let wall = timed.wall.as_secs_f64();

    // Per-class medians, for choosing the mix.
    for (i, class) in w.classes.iter().enumerate() {
        let mut v: Vec<f64> = timed
            .samples
            .iter()
            .filter(|s| s.class == i)
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        if !v.is_empty() {
            let k = v.len();
            eprintln!(
                "  class {:<22} n={k:<4} median {:.3} ms",
                class.label,
                median(&mut v)
            );
        }
    }

    let metrics = if args.trace {
        let mut report = replay::traced(&w, &timed, threads, args.seed);
        correct &= report.self_check_ok;
        let probe = if w.name == "sweep_cold" {
            probe::shuffled_sweeps(args.seed)
        } else {
            probe::Probe { hung: 0, ok: true }
        };
        correct &= probe.ok;
        report
            .metrics
            .put("parallel.shuffled_sweep_hangs", probe.hung as f64, "count");
        report.metrics
    } else {
        let mut metrics = Metrics(Vec::new());
        let governed: Vec<bool> = timed.samples.iter().filter_map(|s| s.budget_met).collect();
        metrics.put("latency_p50_ms", p50, "ms");
        metrics.put("latency_tail_ms", tail, "ms");
        metrics.put("requests_per_s", n as f64 / wall, "1/s");
        metrics.put("ok_share", ok as f64 / n as f64, "ratio");
        metrics.put(
            "decided_share",
            timed.samples.iter().map(|s| s.decided).sum::<f64>() / n as f64,
            "ratio",
        );
        // Outside `solve_governed` no request carries a cap, so every
        // (zero) governed request met its budget.
        metrics.put(
            "budget_met_share",
            if governed.is_empty() {
                1.0
            } else {
                governed.iter().filter(|&&m| m).count() as f64 / governed.len() as f64
            },
            "ratio",
        );
        metrics.put("peak_heap_mb", timed.peak_heap as f64 / 1e6, "MB");
        metrics.put("setup_s", setup_s, "s");
        for (name, value, unit) in &metrics.0 {
            println!("{name} {value} {unit}");
        }
        println!(
            "latency_tail_ms is p{} of {n} samples ({} beyond it)",
            w.tail_pct,
            n - ((w.tail_pct / 100.0) * n as f64).ceil() as usize
        );
        metrics
    };
    ALLOC.uncounted(|| drop(timed.samples));
    finish(correct, n, n - ok, &metrics);
}

fn finish(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
}
