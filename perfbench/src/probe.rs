//! The shuffled-sweep probe of the traced mode on `sweep_cold`.
//!
//! `sweep_cold` sends the `all` cells in registry order, because seeded
//! permutations of them can deadlock `Engine::matrix` at two workers (see
//! "Known defects" in `perfbench/README.md`). The deadlock shows in a
//! fresh process, as a `scenarios --family all` user runs one, and hardly
//! ever on a pool that has already run sweeps. So this probe runs each
//! seeded permutation in a child process of this binary
//! (`--probe-sweep <n>`), waits for it with a timeout far above a sweep's
//! latency, and kills and reaps a child that has not finished by then.

use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gact_scenarios::cells_for;

use crate::workload::{matrix, Request, SplitMix};

/// Seeded permutations sent per probe.
pub const SWEEPS: u64 = 8;
/// A sweep takes well under a second; a child that has not finished after
/// this long is hung.
const TIMEOUT: Duration = Duration::from_secs(3);

/// What the probe saw.
pub struct Probe {
    /// Children that did not finish within `TIMEOUT`.
    pub hung: usize,
    /// Every finished child's sweep agreed with the truth table.
    pub ok: bool,
}

/// The `all` cells in the order permutation `n` sends them.
fn shuffled(n: u64) -> Vec<gact_scenarios::Cell> {
    let mut cells = cells_for("all").expect("the all family is registered");
    SplitMix::new(n).shuffle(&mut cells);
    cells
}

/// Child side: one shuffled sweep on a fresh engine; prints `ok` when the
/// reply agrees with the truth table, `wrong` otherwise.
pub fn child(n: u64, threads: usize) {
    let cells = shuffled(n);
    let result = matrix(&crate::fresh_engine(threads), &cells);
    let ok = crate::judge(&Request::Sweep { cells }, result, threads).0;
    println!("{}", if ok { "ok" } else { "wrong" });
}

/// Parent side: `SWEEPS` children, permutations drawn from `seed`.
pub fn shuffled_sweeps(seed: u64) -> Probe {
    let mut probe = Probe { hung: 0, ok: true };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("probe: cannot find this binary: {e}");
            probe.ok = false;
            return probe;
        }
    };
    for i in 0..SWEEPS {
        let n = seed.wrapping_mul(SWEEPS).wrapping_add(i);
        let spawned = Command::new(&exe)
            .args(["--probe-sweep", &n.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn();
        let mut child = match spawned {
            Ok(child) => child,
            Err(e) => {
                eprintln!("probe: cannot start a child: {e}");
                probe.ok = false;
                return probe;
            }
        };
        let t0 = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if t0.elapsed() < TIMEOUT => std::thread::sleep(Duration::from_millis(20)),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        let mut out = String::new();
        if let Some(mut stdout) = child.stdout.take() {
            let _ = stdout.read_to_string(&mut out);
        }
        match status {
            None => {
                eprintln!(
                    "probe: permutation {n} of the all sweep hung (killed after {TIMEOUT:?})"
                );
                probe.hung += 1;
            }
            Some(status) if status.success() && out.trim() == "ok" => {}
            Some(status) => {
                eprintln!(
                    "probe: permutation {n} ended with {status}, said {:?}",
                    out.trim()
                );
                probe.ok = false;
            }
        }
    }
    probe
}
