//! The four workloads: their request classes, their mixes, and the seeded
//! request streams. The engine only ever sees the generated requests.
//!
//! A stream is a sequence of *cycles*. Every cycle holds the same
//! multiset of requests (each class `weight` times) in a seed-shuffled
//! order, so whole cycles give the same `ok_share`, `decided_share` and
//! `budget_met_share` whatever the machine's speed, and the median and
//! tail percentile stay inside the class mass the weights were chosen for.

use gact_chromatic::CacheStats;
use gact_engine::{
    Budget, Engine, EngineError, EngineStats, MatrixRequest, SolveRequest, SolveVerdict,
    VerifyRequest,
};
use gact_iis::Run;
use gact_models::{ModelSpec, RunSampler, SamplerConfig};
use gact_scenarios::{cells_for, Cell, CellOutcome, SolvableBy, TaskSpec};

use crate::truth::Verdict;

/// Node cap of every governed request.
pub const NODE_CAP: u64 = 20_000;
/// The search layer's checkpoint interval (`STOP_CHECK_GRAIN` in
/// `gact::control`): each search worker counts this many nodes between
/// budget checks, so a governed request may overrun its cap by one
/// interval per worker.
pub const CHECKPOINT_INTERVAL: u64 = 64;
/// Runs carried by a verify request with sampled runs.
const SAMPLED_RUNS: usize = 24;

/// One request as the benchmark builds it.
#[derive(Clone, Debug)]
pub enum Request {
    /// `Engine::matrix` over `cells` on a fresh engine.
    Sweep { cells: Vec<Cell> },
    /// `Engine::solve`, node-capped when `cap` is set.
    Solve {
        task: TaskSpec,
        max_depth: usize,
        cap: Option<u64>,
    },
    /// `Engine::verify` of the `L_t` witness, on the model's enumerated
    /// runs or on the given ones.
    Verify {
        n: usize,
        t: usize,
        model: ModelSpec,
        runs: Option<Vec<Run>>,
    },
}

impl Request {
    /// The `(task, model)` pair the truth table is consulted on, one per
    /// verdict of the reply.
    pub fn truth_keys(&self) -> Vec<(TaskSpec, ModelSpec)> {
        match self {
            Request::Sweep { cells } => cells.iter().map(|c| (c.task, c.model)).collect(),
            Request::Solve { task, .. } => vec![(*task, ModelSpec::WaitFree)],
            Request::Verify { n, t, model, .. } => vec![(TaskSpec::Lt { n: *n, t: *t }, *model)],
        }
    }

    pub fn cap(&self) -> Option<u64> {
        match self {
            Request::Solve { cap, .. } => *cap,
            _ => None,
        }
    }
}

/// What one request produced: verdicts (one per truth key), the search
/// effort the reply reports, and, for a sweep on its own fresh engine,
/// that engine's cache traffic.
#[derive(Clone, Debug)]
pub struct Reply {
    pub verdicts: Vec<Verdict>,
    pub assignments: u64,
    pub cache: Option<CacheTraffic>,
}

/// Hit/miss/eviction counters of the engine's three cache layers.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheTraffic {
    pub subdivisions: CacheStats,
    pub domain_tables: CacheStats,
    pub plans: CacheStats,
}

impl CacheTraffic {
    pub fn of(stats: &EngineStats) -> Self {
        CacheTraffic {
            subdivisions: stats.subdivision_cache,
            domain_tables: stats.domain_table_cache,
            plans: stats.propagation_plan_cache,
        }
    }

    /// `self - before`, layer by layer.
    pub fn since(self, before: CacheTraffic) -> Self {
        let d = |a: CacheStats, b: CacheStats| CacheStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            evictions: a.evictions - b.evictions,
        };
        CacheTraffic {
            subdivisions: d(self.subdivisions, before.subdivisions),
            domain_tables: d(self.domain_tables, before.domain_tables),
            plans: d(self.plans, before.plans),
        }
    }

    pub fn add(&mut self, other: CacheTraffic) {
        let a = |x: &mut CacheStats, y: CacheStats| {
            x.hits += y.hits;
            x.misses += y.misses;
            x.evictions += y.evictions;
        };
        a(&mut self.subdivisions, other.subdivisions);
        a(&mut self.domain_tables, other.domain_tables);
        a(&mut self.plans, other.plans);
    }
}

/// A request class: a label, how often it appears per cycle, whether the
/// warm-up pass sends it, and how to build one instance (`build` draws
/// per-request inputs from the seed).
pub struct Class {
    pub label: &'static str,
    weight: usize,
    warm: Warm,
    build: Box<dyn Fn(&mut SplitMix) -> Request>,
}

/// A class's part in the warm-up pass that precedes the timed phase.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Warm {
    /// Sent once as is.
    Send,
    /// Its caches are filled by another class of the same workload.
    Skip,
    /// Sent one depth shallower: the same cached subdivisions and tables
    /// without the deepest search (the overrun instance costs seconds).
    Shallower,
}

/// A workload: its classes and its fixed tail percentile.
pub struct Workload {
    pub name: &'static str,
    pub classes: Vec<Class>,
    /// The tail percentile reported as `latency_tail_ms`; a timed phase
    /// always holds at least `min_samples()` requests, so at least ten
    /// lie beyond it.
    pub tail_pct: f64,
}

impl Workload {
    /// The smallest sample count with ten samples beyond the tail
    /// percentile.
    pub fn min_samples(&self) -> usize {
        (10.0 / (1.0 - self.tail_pct / 100.0)).ceil() as usize + 1
    }

    /// One cycle: every class `weight` times, in a seeded order.
    pub fn cycle(&self, rng: &mut SplitMix) -> Vec<(usize, Request)> {
        let mut items = Vec::new();
        for (i, class) in self.classes.iter().enumerate() {
            for _ in 0..class.weight {
                items.push((i, (class.build)(rng)));
            }
        }
        rng.shuffle(&mut items);
        items
    }

    /// The warm-up pass: requests that fill every cache the timed phase
    /// reads.
    pub fn warmup(&self, rng: &mut SplitMix) -> Vec<Request> {
        let mut out = Vec::new();
        for class in &self.classes {
            let request = (class.build)(rng);
            match (class.warm, request) {
                (Warm::Skip, _) => {}
                (
                    Warm::Shallower,
                    Request::Solve {
                        task,
                        max_depth,
                        cap,
                    },
                ) => out.push(Request::Solve {
                    task,
                    max_depth: max_depth.saturating_sub(1),
                    cap,
                }),
                (_, request) => out.push(request),
            }
        }
        out
    }
}

/// The named workload, if there is one. The weights put the median and
/// the tail percentile each well inside one class's share of the
/// requests (classes sorted by latency), never on a boundary between two
/// classes; see `perfbench/README.md` for the shares.
pub fn workload(name: &str) -> Option<Workload> {
    type Build = Box<dyn Fn(&mut SplitMix) -> Request>;
    let solve = |task: TaskSpec, max_depth: usize, cap: Option<u64>| -> Build {
        Box::new(move |_: &mut SplitMix| Request::Solve {
            task,
            max_depth,
            cap,
        })
    };
    let verify = |n: usize, t: usize, model: ModelSpec, sampled: bool| -> Build {
        Box::new(move |rng: &mut SplitMix| Request::Verify {
            n,
            t,
            model,
            runs: sampled.then(|| sample_runs(n + 1, model, rng.next_u64())),
        })
    };
    let class = |label, weight, warm, build| Class {
        label,
        weight,
        warm,
        build,
    };
    use TaskSpec::*;
    use Warm::*;
    let w = match name {
        "sweep_cold" => Workload {
            name: "sweep_cold",
            classes: vec![class(
                "family-all",
                1,
                Send,
                // Registry order, as `scenarios --family all` sends it. The
                // seed does not permute the cells here: at two workers most
                // permutations deadlock the engine (a known defect, see
                // perfbench/README.md). The traced mode sends seeded
                // permutations in `probe.rs` and reports how they fare.
                Box::new(|_: &mut SplitMix| Request::Sweep {
                    cells: cells_for("all").expect("the all family is registered"),
                }),
            )],
            tail_pct: 75.0,
        },
        "solve_warm" => {
            let s = |task, depth| solve(task, depth, None);
            Workload {
                name: "solve_warm",
                classes: vec![
                    // Below the median class: 16 of 60.
                    class(
                        "consensus-n1-v2",
                        2,
                        Send,
                        s(Consensus { n: 1, n_values: 2 }, 2),
                    ),
                    class(
                        "consensus-n2-v2",
                        2,
                        Send,
                        s(Consensus { n: 2, n_values: 2 }, 2),
                    ),
                    class("chr1-n1", 2, Send, s(FullSubdivision { n: 1, depth: 1 }, 1)),
                    class("chr2-n1", 2, Send, s(FullSubdivision { n: 1, depth: 2 }, 2)),
                    class("chr1-n2", 2, Send, s(FullSubdivision { n: 2, depth: 1 }, 1)),
                    class("lord-n2-d1", 2, Send, s(TotalOrder { n: 2 }, 1)),
                    class("lord-n2-d3", 2, Send, s(TotalOrder { n: 2 }, 3)),
                    class("l1-n1-d2", 2, Send, s(Lt { n: 1, t: 1 }, 2)),
                    // The median class: 16..38 of 60.
                    class(
                        "2sa-n2-v3-d0",
                        22,
                        Send,
                        s(
                            SetAgreement {
                                n: 2,
                                n_values: 3,
                                k: 2,
                            },
                            0,
                        ),
                    ),
                    // Between median and tail: 38..48 of 60.
                    class("l0-n2-d3", 2, Send, s(Lt { n: 2, t: 0 }, 3)),
                    class("l1-n2-d1", 2, Send, s(Lt { n: 2, t: 1 }, 1)),
                    class("l1-n2-d3", 2, Send, s(Lt { n: 2, t: 1 }, 3)),
                    class("chr2-n2", 2, Send, s(FullSubdivision { n: 2, depth: 2 }, 2)),
                    class("l2-n2-d2", 2, Send, s(Lt { n: 2, t: 2 }, 2)),
                    // The tail class: 48..59 of 60.
                    class(
                        "chr1-n3",
                        11,
                        Send,
                        s(FullSubdivision { n: 3, depth: 1 }, 1),
                    ),
                    class(
                        "3sa-n3-v3-d0",
                        1,
                        Send,
                        s(
                            SetAgreement {
                                n: 3,
                                n_values: 3,
                                k: 3,
                            },
                            0,
                        ),
                    ),
                ],
                tail_pct: 90.0,
            }
        }
        "verify_warm" => {
            let res = |t| ModelSpec::TResilient { t };
            Workload {
                name: "verify_warm",
                classes: vec![
                    // Below the median class: 12 of 45.
                    class("l2-res2-sampled", 6, Skip, verify(2, 2, res(2), true)),
                    class("l2-res2", 6, Send, verify(2, 2, res(2), false)),
                    // The median class (equal latencies): 12..36 of 45.
                    class("l1-res1", 12, Send, verify(2, 1, res(1), false)),
                    class(
                        "l1-geo-res1",
                        12,
                        Skip,
                        verify(2, 1, ModelSpec::GeometricTResilient { t: 1 }, false),
                    ),
                    // The tail class: 36..44 of 45.
                    class("l1-res1-sampled", 8, Skip, verify(2, 1, res(1), true)),
                    // The negative check, one in 45 so it does not swamp
                    // the mix.
                    class("l1-wf", 1, Skip, verify(2, 1, ModelSpec::WaitFree, false)),
                ],
                tail_pct: 90.0,
            }
        }
        "solve_governed" => {
            let c = |task, depth| solve(task, depth, Some(NODE_CAP));
            Workload {
                name: "solve_governed",
                classes: vec![
                    // The median class: 0..360 of 541. The cycle is sized to
                    // outlast a run's `--seconds` once, so a run is one cycle.
                    class(
                        "2sa-n2-v3-d1-capped",
                        360,
                        Send,
                        c(
                            SetAgreement {
                                n: 2,
                                n_values: 3,
                                k: 2,
                            },
                            1,
                        ),
                    ),
                    // The tail class: 360..540 of 541.
                    class(
                        "chr3-n2-d3-capped",
                        180,
                        Send,
                        c(FullSubdivision { n: 2, depth: 3 }, 3),
                    ),
                    // The budget-overrun instance (a known defect): one per
                    // cycle, so the tail never sits in it.
                    class(
                        "chr3-n1-d3-capped",
                        1,
                        Shallower,
                        c(FullSubdivision { n: 1, depth: 3 }, 3),
                    ),
                ],
                tail_pct: 90.0,
            }
        }
        _ => return None,
    };
    Some(w)
}

/// `SAMPLED_RUNS` seeded runs of `model` over `n_procs` processes: drawn
/// by the repository's `RunSampler` and kept when the model admits them.
fn sample_runs(n_procs: usize, model: ModelSpec, seed: u64) -> Vec<Run> {
    let built = model.build(n_procs);
    let config = SamplerConfig {
        max_prefix: 1,
        max_cycle: 2,
    };
    let mut sampler = RunSampler::new(n_procs, seed, config);
    let mut runs = Vec::with_capacity(SAMPLED_RUNS);
    while runs.len() < SAMPLED_RUNS {
        let run = sampler.sample();
        if built.contains(&run) {
            runs.push(run);
        }
    }
    runs
}

/// Sends one request to the engine. `sweep` builds the fresh engine a
/// sweep request runs on.
pub fn issue(
    engine: &Engine,
    sweep: &dyn Fn() -> Engine,
    request: &Request,
) -> Result<Reply, EngineError> {
    match request {
        Request::Sweep { cells } => matrix(&sweep(), cells),
        Request::Solve {
            task,
            max_depth,
            cap,
        } => {
            let mut req = SolveRequest::new(*task, *max_depth)?;
            if let Some(cap) = cap {
                req = req.with_budget(Budget::unlimited().with_max_nodes(*cap))?;
            }
            let reply = engine.solve(&req)?;
            Ok(Reply {
                verdicts: vec![solve_verdict(&reply.outcome)],
                assignments: reply.stats.assignments,
                cache: None,
            })
        }
        Request::Verify { n, t, model, runs } => {
            let mut req = VerifyRequest::new(*n, *t, *model)?;
            if let Some(runs) = runs {
                req = req.with_runs(runs.clone())?;
            }
            let reply = engine.verify(&req)?;
            Ok(Reply {
                verdicts: vec![Verdict::Verified {
                    bands: reply.bands,
                    runs: reply.runs,
                    violations: reply.violations,
                }],
                assignments: 0,
                cache: None,
            })
        }
    }
}

/// `Engine::matrix` over `cells` on `fresh`, an engine no other request
/// has used.
pub fn matrix(fresh: &Engine, cells: &[Cell]) -> Result<Reply, EngineError> {
    let reply = fresh.matrix(&MatrixRequest::from_cells("bench", cells.to_vec())?)?;
    let verdicts = reply
        .report
        .results
        .iter()
        .map(|r| match &r.outcome {
            CellOutcome::Decided(v) => cell_verdict(v),
            CellOutcome::Interrupted(_) => Verdict::Interrupted {
                completed_depths: 0,
            },
        })
        .collect();
    Ok(Reply {
        verdicts,
        assignments: reply.report.solver.assignments,
        cache: Some(CacheTraffic::of(&fresh.stats())),
    })
}

pub fn solve_verdict(v: &SolveVerdict) -> Verdict {
    match v {
        SolveVerdict::Solvable { depth, .. } => Verdict::Solvable { depth: *depth },
        SolveVerdict::Unsolvable { .. } => Verdict::Unsolvable,
        SolveVerdict::NoMapUpTo(_) => Verdict::Unknown,
        SolveVerdict::Interrupted {
            completed_depths, ..
        } => Verdict::Interrupted {
            completed_depths: *completed_depths,
        },
    }
}

pub fn cell_verdict(v: &gact_scenarios::Verdict) -> Verdict {
    use gact_scenarios::Verdict as V;
    match v {
        V::Solvable(SolvableBy::WaitFreeMap { depth }) => Verdict::Solvable { depth: *depth },
        V::Solvable(SolvableBy::ResilientCertificate {
            bands,
            runs_verified,
        }) => Verdict::Certified {
            bands: *bands,
            runs: *runs_verified,
        },
        V::Unsolvable { .. } => Verdict::Unsolvable,
        V::ProtocolVerified { runs, violations } => Verdict::ProtocolVerified {
            runs: *runs,
            violations: *violations,
        },
        V::Unknown { .. } => Verdict::Unknown,
    }
}

/// SplitMix64: the benchmark's own seeded generator, so the request
/// stream depends on nothing but `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
