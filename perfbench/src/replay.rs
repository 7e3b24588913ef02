//! The traced mode: replays a workload's requests through each layer's
//! public functions, in the order the engine issues those calls, with a
//! span around every call.
//!
//! * Solve requests follow the rounds engine of `act_solve_with_cache`:
//!   task build, connectivity obstruction, then per depth the cached
//!   `Chr^depth` (a `chromatic.chr_step` span when it misses), its domain
//!   tables, and `solve_compiled_with` with a traced plan source.
//!   Governed requests run `act_solve_controlled` whole, since the search
//!   layer's stop state is not public.
//! * Sweep cells follow `evaluate_cell`; the Proposition 9.2 witness it
//!   builds behind `QueryCache::lt_showcase` is replayed stepwise as
//!   `build_lt_showcase` composes it (advance, band select, stabilize,
//!   δ solve, carrier check), once per replayed engine like the memo.
//!   Commit–adopt cells replay its run enumeration and filtering and the
//!   protocol executed and checked per run.
//! * Verify requests follow `Engine::verify`: witness, run enumeration and
//!   filtering, `verify_protocol_on_runs`.
//!
//! Both replay passes run on one worker, so their counters repeat exactly
//! at a fixed seed. The untraced pass makes the same calls without spans;
//! the ratio of the two walls is the tracing overhead. Every replayed
//! answer is compared with the engine's reply to the same request: if one
//! differs, the per-layer numbers describe a different program and the
//! run is marked incorrect. `trace.coverage` is the layer spans' self
//! time over the traced wall; the self time of the grouping spans
//! (`request`, `scenarios.cell`) is not covered and is reported as
//! `engine.unaccounted_ms`.

use std::cell::{Cell as StdCell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gact::cache::QueryCache;
use gact::lt::{on_forbidden_skeleton, output_region_locator, radial_projection_with};
use gact::solver::{
    solve, solve_compiled_with, MapProblem, SolveOutcome, SolveStats, PROPAGATION_MIN_CONSTRAINTS,
};
use gact::{
    act_solve_controlled, connectivity_obstruction, verify_protocol_on_runs, ActOutcome,
    ActVerdict, Budget, GactCertificate, SolveControl,
};
use gact_chromatic::{CacheStats, TerminatingSubdivision};
use gact_engine::VerifyRequest;
use gact_iis::{execute, InputAssignment, ProcessId, Run};
use gact_models::{enumerate_runs, ModelSpec};
use gact_scenarios::{Cell, TaskSpec};
use gact_tasks::affine::{lt_task, AffineTask};
use gact_tasks::commit_adopt::{check_commit_adopt, CaOutput, CommitAdopt};
use gact_tasks::CompiledTask;
use gact_topology::{l1_distance, VertexId};

use crate::truth::Verdict;
use crate::workload::{Request, Workload};
use crate::{Metrics, Timed};

/// The proposal of each process in a commit–adopt cell, as the engine's
/// commit–adopt cell evaluation fixes them (the self-check catches any drift).
const CA_PROPOSALS: [u32; 8] = [4, 9, 4, 7, 2, 9, 1, 4];

/// Spans that only group the calls below them; their own time is the
/// replay's glue, not any layer's, so `trace.coverage` leaves it out.
const WRAPPERS: [&str; 2] = ["request", "scenarios.cell"];

/// One recorded call.
struct Span {
    name: &'static str,
    /// The scenario family of a `scenarios.cell` span.
    family: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: usize,
}

/// Span recorder; records nothing in the untraced pass.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    request: StdCell<usize>,
}

impl Tracer {
    /// Runs `f` inside a span whose name `name` picks from the result.
    fn span_as<R>(
        &self,
        family: &'static str,
        f: impl FnOnce() -> R,
        name: impl FnOnce(&R) -> &'static str,
    ) -> R {
        if !self.on {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: "",
                family,
                start: self.t0.elapsed(),
                end: Duration::ZERO,
                parent: self.open.borrow().last().copied(),
                request: self.request.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        let end = self.t0.elapsed();
        let mut spans = self.spans.borrow_mut();
        spans[index].end = end;
        spans[index].name = name(&result);
        result
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_as("", f, |_| name)
    }
}

/// A Proposition 9.2 witness as the stepwise replay builds it.
struct Showcase {
    affine: AffineTask,
    certificate: GactCertificate,
    band_sizes: Vec<usize>,
}

/// The rounds engine's answer before a cell or request maps it.
enum Act {
    Map(usize),
    Obstruction,
    NoMap,
}

/// One replay pass: its cache and witness memo (replaced per sweep
/// request, as the engine is), tracer and counters.
struct Replay {
    cache: RefCell<Arc<QueryCache>>,
    showcases: RefCell<HashMap<(usize, usize, usize), Arc<Showcase>>>,
    tracer: Tracer,
    counts: RefCell<BTreeMap<&'static str, f64>>,
}

impl Replay {
    fn new(traced: bool) -> Self {
        Replay {
            cache: RefCell::new(Arc::new(QueryCache::new())),
            showcases: RefCell::new(HashMap::new()),
            tracer: Tracer {
                on: traced,
                t0: Instant::now(),
                spans: RefCell::new(Vec::new()),
                open: RefCell::new(Vec::new()),
                request: StdCell::new(0),
            },
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    fn count(&self, name: &'static str, by: f64) {
        *self.counts.borrow_mut().entry(name).or_insert(0.0) += by;
    }

    fn add_stats(&self, s: SolveStats) {
        self.count("solver.assignments", s.assignments as f64);
        self.count("solver.backtracks", s.backtracks as f64);
        self.count("solver.prunes", s.prunes as f64);
        self.count("solver.component_prunes", s.component_prunes as f64);
    }

    /// Runs a cache call in a span named `miss` when the layer's miss
    /// counter moved, `cache.lookup` otherwise; returns the misses.
    fn cached<R>(
        &self,
        stats: impl Fn() -> CacheStats,
        miss: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let before = stats().misses;
        let r = self.tracer.span_as("", f, |_| {
            if stats().misses > before {
                miss
            } else {
                "cache.lookup"
            }
        });
        (r, stats().misses - before)
    }

    /// One request, under a root `request` span.
    fn request(&self, id: usize, request: &Request) -> Vec<Verdict> {
        self.tracer.request.set(id);
        self.tracer.span("request", || match request {
            Request::Sweep { cells } => {
                *self.cache.borrow_mut() = Arc::new(QueryCache::new());
                self.showcases.borrow_mut().clear();
                cells.iter().map(|c| self.cell(c)).collect()
            }
            Request::Solve {
                task,
                max_depth,
                cap,
            } => vec![self.solve(*task, *max_depth, *cap)],
            Request::Verify { n, t, model, runs } => {
                vec![self.verify(*n, *t, *model, runs.as_deref())]
            }
        })
    }

    fn solve(&self, spec: TaskSpec, max_depth: usize, cap: Option<u64>) -> Verdict {
        let cache = self.cache.borrow().clone();
        let task = self.tracer.span("tasks.build", || {
            spec.build_task(&cache)
                .expect("solve requests carry task specs")
        });
        if let Some(cap) = cap {
            let control = SolveControl::new().with_budget(Budget::unlimited().with_max_nodes(cap));
            let outcome = self.tracer.span("solver.search", || {
                act_solve_controlled(&task, max_depth, Some(&cache), &control)
            });
            let stats = outcome.stats();
            self.add_stats(stats);
            self.count(
                "control.overrun_nodes",
                stats.assignments.saturating_sub(cap) as f64,
            );
            let (verdict, searched) = match outcome {
                ActOutcome::Interrupted {
                    completed_depths, ..
                } => (
                    Verdict::Interrupted { completed_depths },
                    completed_depths + 1,
                ),
                ActOutcome::Done { verdict, .. } => match verdict {
                    ActVerdict::Solvable { depth, .. } => (Verdict::Solvable { depth }, depth + 1),
                    ActVerdict::ImpossibleByObstruction(_) => (Verdict::Unsolvable, 0),
                    ActVerdict::NoMapUpTo(d) => (Verdict::Unknown, d + 1),
                },
            };
            self.count("act.depths_searched", searched as f64);
            // Which searched depths took the small path, read back from
            // the tables the governed search just cached.
            self.tracer.span("cache.lookup", || {
                let key = cache.key_of(&task.input, &task.input_geometry);
                for depth in 0..searched.min(max_depth + 1) {
                    let sd = cache.subdivision_keyed(key, &task.input, &task.input_geometry, depth);
                    let small = cache.domain_tables(key, depth, &sd).constraint_count()
                        < PROPAGATION_MIN_CONSTRAINTS;
                    self.count("solver.calls", 1.0);
                    self.count("solver.small_path_calls", f64::from(u8::from(small)));
                }
            });
            return verdict;
        }
        match self.rounds(&cache, &task, max_depth) {
            Act::Map(depth) => Verdict::Solvable { depth },
            Act::Obstruction => Verdict::Unsolvable,
            Act::NoMap => Verdict::Unknown,
        }
    }

    /// The ungoverned rounds engine of `act_solve_with_cache`, call by
    /// call.
    fn rounds(&self, cache: &QueryCache, task: &gact_tasks::Task, max_depth: usize) -> Act {
        let t = &self.tracer;
        if t.span("topology.obstruction", || connectivity_obstruction(task))
            .is_some()
        {
            return Act::Obstruction;
        }
        let compiled = CompiledTask::new(task);
        let key = t.span("cache.lookup", || {
            cache.key_of(&task.input, &task.input_geometry)
        });
        for depth in 0..=max_depth {
            self.count("act.depths_searched", 1.0);
            let (sd, built) = self.cached(
                || cache.subdivisions().stats(),
                "chromatic.chr_step",
                || cache.subdivision_keyed(key, &task.input, &task.input_geometry, depth),
            );
            if built > 0 {
                self.count("chromatic.chr_step_calls", built as f64);
                self.count(
                    "chromatic.facets_built",
                    sd.complex.complex().facet_count() as f64,
                );
            }
            let (tables, _) = self.cached(
                || cache.table_stats(),
                "solver.domains",
                || cache.domain_tables(key, depth, &sd),
            );
            self.count("solver.calls", 1.0);
            if tables.constraint_count() < PROPAGATION_MIN_CONSTRAINTS {
                self.count("solver.small_path_calls", 1.0);
            }
            let source = || {
                self.cached(
                    || cache.plan_stats(),
                    "solver.plan",
                    || cache.propagation_plan(key, depth, &tables, &sd),
                )
                .0
            };
            let outcome = t.span("solver.search", || {
                solve_compiled_with(&tables, &sd.complex, &compiled, None, Some(&source))
            });
            self.add_stats(outcome.stats());
            if outcome.is_solvable() {
                return Act::Map(depth);
            }
        }
        Act::NoMap
    }

    /// `evaluate_cell`, call by call.
    fn cell(&self, cell: &Cell) -> Verdict {
        let cache = self.cache.borrow().clone();
        self.tracer.span_as(
            cell.family,
            || {
                if let TaskSpec::CommitAdopt { n } = cell.task {
                    return self.commit_adopt(n, cell.model);
                }
                let task = self.tracer.span("tasks.build", || {
                    cell.task
                        .build_task(&cache)
                        .expect("non-protocol specs build tasks")
                });
                match self.rounds(&cache, &task, cell.max_depth) {
                    Act::Map(depth) => return Verdict::Solvable { depth },
                    Act::Obstruction if cell.model.is_full() => return Verdict::Unsolvable,
                    _ => {}
                }
                match (cell.model.resilience(), cell.task) {
                    (Some(m), TaskSpec::Lt { n, t }) if m == t && t >= 1 && t <= n => {
                        match self.verify(n, t, cell.model, None) {
                            Verdict::Verified {
                                bands,
                                runs,
                                violations: 0,
                            } => Verdict::Certified {
                                bands: bands.len(),
                                runs,
                            },
                            _ => Verdict::Unknown,
                        }
                    }
                    _ => Verdict::Unknown,
                }
            },
            |_| "scenarios.cell",
        )
    }

    /// `evaluate_cell`'s commit–adopt check, call by call: the model's
    /// runs, then the protocol executed and checked on each.
    fn commit_adopt(&self, n: usize, model: ModelSpec) -> Verdict {
        let n_procs = n + 1;
        let all = self
            .tracer
            .span("models.enumerate", || enumerate_runs(n_procs, 0));
        self.count("models.enumerated", all.len() as f64);
        let runs = self
            .tracer
            .span("models.filter", || model.build(n_procs).filter_batch(all));
        self.count("models.admitted", runs.len() as f64);
        let violations = self.tracer.span("protocol.commit_adopt", || {
            let mut violations = 0;
            for run in &runs {
                let mut ia = InputAssignment::standard_corners(n);
                for p in run.part().iter() {
                    ia.values.insert(p, CA_PROPOSALS[p.0 as usize]);
                }
                let exec = execute(&CommitAdopt, &ia, run.rounds_prefix(2), 4);
                let proposals: HashMap<ProcessId, u32> = run
                    .round(0)
                    .participants()
                    .iter()
                    .map(|p| (p, CA_PROPOSALS[p.0 as usize]))
                    .collect();
                let outputs: HashMap<ProcessId, CaOutput> =
                    exec.outputs.iter().map(|(p, d)| (*p, d.value)).collect();
                violations += check_commit_adopt(&proposals, &outputs).len();
            }
            violations
        });
        Verdict::ProtocolVerified {
            runs: runs.len(),
            violations,
        }
    }

    /// `Engine::verify`, call by call. (A sweep cell counts runs with a
    /// violation; any violation makes both counts non-zero.)
    fn verify(&self, n: usize, t: usize, model: ModelSpec, given: Option<&[Run]>) -> Verdict {
        let shape = VerifyRequest::new(n, t, model).expect("workload requests are valid");
        let show = self.showcase(n, t, shape.extra_stages());
        let runs: Vec<Run> = match given {
            Some(runs) => runs.to_vec(),
            None => {
                let all = self
                    .tracer
                    .span("models.enumerate", || enumerate_runs(n + 1, 0));
                self.count("models.enumerated", all.len() as f64);
                let kept = self
                    .tracer
                    .span("models.filter", || model.build(n + 1).filter_batch(all));
                self.count("models.admitted", kept.len() as f64);
                kept
            }
        };
        let reports = self.tracer.span("protocol.verify", || {
            verify_protocol_on_runs(&show.certificate, &show.affine.task, &runs, shape.rounds())
        });
        let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
        self.count("protocol.runs", runs.len() as f64);
        self.count(
            "protocol.rounds_executed",
            reports.iter().map(|r| r.rounds).sum::<usize>() as f64,
        );
        self.count("protocol.violations", violations as f64);
        Verdict::Verified {
            bands: show.band_sizes.clone(),
            runs: runs.len(),
            violations,
        }
    }

    /// The memoized witness, built stepwise on a miss.
    fn showcase(&self, n: usize, t: usize, extra_stages: usize) -> Arc<Showcase> {
        let key = (n, t, extra_stages);
        if let Some(hit) = self.showcases.borrow().get(&key) {
            return hit.clone();
        }
        let built = Arc::new(self.build_showcase(n, t, extra_stages));
        self.showcases.borrow_mut().insert(key, built.clone());
        built
    }

    /// `build_lt_showcase`, step by step.
    fn build_showcase(&self, n: usize, t: usize, extra_stages: usize) -> Showcase {
        let tr = &self.tracer;
        let affine = tr.span("tasks.build", || lt_task(n, t));
        let task = &affine.task;
        let mut sub = tr.span("chromatic.advance", || {
            let mut sub = TerminatingSubdivision::new(&task.input, &task.input_geometry);
            sub.advance_by(2);
            sub
        });
        self.count("chromatic.advance_calls", 2.0);
        let mut band_sizes = Vec::new();
        for _ in 0..=extra_stages {
            let facets = tr.span("lt.band_select", || {
                let geometry = sub.geometry();
                let candidates: Vec<&gact_topology::Simplex> =
                    sub.current().complex().iter_dim(n).collect();
                let keep = gact_parallel::par_map(&candidates, |f| {
                    f.iter()
                        .all(|v| !on_forbidden_skeleton(geometry.coord(v), n, t))
                });
                candidates
                    .iter()
                    .zip(&keep)
                    .filter(|&(_, &keep)| keep)
                    .map(|(&f, _)| f.clone())
                    .collect::<Vec<_>>()
            });
            band_sizes.push(tr.span("lt.stabilize", || sub.stabilize(facets)));
            tr.span("chromatic.advance", || sub.advance());
            self.count("chromatic.advance_calls", 1.0);
        }
        let map = tr.span("lt.delta_solve", || {
            let stable = sub.stable_chromatic();
            let geometry = sub.geometry().clone();
            let out_geometry = affine.ambient.geometry.clone();
            let vertex_carrier = sub
                .current()
                .complex()
                .vertex_set()
                .into_iter()
                .map(|v| (v, sub.carrier(v).clone()))
                .collect();
            let problem = MapProblem {
                domain: &stable,
                vertex_carrier: &vertex_carrier,
                task,
            };
            let region = output_region_locator(&affine);
            let hint = move |v: VertexId, cands: &[VertexId]| -> Vec<VertexId> {
                let target = radial_projection_with(geometry.coord(v), &region, n, t);
                let mut ordered = cands.to_vec();
                ordered.sort_by(|&a, &b| {
                    l1_distance(out_geometry.coord(a), &target)
                        .total_cmp(&l1_distance(out_geometry.coord(b), &target))
                });
                ordered
            };
            match solve(&problem, Some(&hint)) {
                SolveOutcome::Map(map, stats) => {
                    self.add_stats(stats);
                    map
                }
                SolveOutcome::Unsatisfiable(_) => {
                    panic!("Proposition 9.2: a chromatic approximation δ exists")
                }
            }
        });
        let certificate = tr.span("lt.carrier_check", || {
            let certificate = GactCertificate::new(sub, map);
            certificate
                .check_carrier_condition(task)
                .expect("Proposition 9.2: the carrier condition holds");
            certificate
        });
        Showcase {
            affine,
            certificate,
            band_sizes,
        }
    }
}

/// The overhead estimate alternates untraced and traced passes until
/// both together ran this long...
const OVERHEAD_MIN_WALL: Duration = Duration::from_secs(3);
/// ...or this many pairs ran.
const OVERHEAD_MAX_PAIRS: usize = 5;

/// The per-layer report of a traced run.
pub struct TraceReport {
    pub metrics: Metrics,
    pub self_check_ok: bool,
}

/// Replays the warm-up requests and then the timed phase's first cycle,
/// once untraced and once traced, and derives the per-layer metrics.
pub fn traced(w: &Workload, timed: &Timed, threads: usize, seed: u64) -> TraceReport {
    let warmup = w.warmup(&mut crate::warmup_rng(seed));
    let requests: Vec<&Request> = warmup
        .iter()
        .chain(timed.first_cycle.iter().map(|(_, r)| r))
        .collect();
    let pass = |traced: bool| {
        gact_parallel::with_threads(1, || {
            let replay = Replay::new(traced);
            let t0 = Instant::now();
            let answers: Vec<Vec<Verdict>> = requests
                .iter()
                .enumerate()
                .map(|(id, r)| crate::watchdog::guard(|| replay.request(id, r)))
                .collect();
            (t0.elapsed(), answers, replay)
        })
    };
    // Untraced and traced passes alternate, first one then the other
    // leading, until both have run for OVERHEAD_MIN_WALL or
    // OVERHEAD_MAX_PAIRS pairs ran.
    let (mut untraced_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let mut last = None;
    let mut pairs = 0;
    while pairs == 0
        || (pairs < OVERHEAD_MAX_PAIRS && untraced_wall + traced_wall < OVERHEAD_MIN_WALL)
    {
        for traced in [pairs % 2 == 1, pairs % 2 == 0] {
            let (wall, answers, replay) = pass(traced);
            if traced {
                traced_wall += wall;
                last = Some((answers, replay));
            } else {
                untraced_wall += wall;
            }
        }
        pairs += 1;
    }
    let (answers, replay) = last.expect("one traced pass ran");

    // Self-check: the replay answers every timed request as the engine did.
    let mut self_check_ok = true;
    for ((request, reply), answer) in timed
        .first_cycle
        .iter()
        .zip(&timed.first_replies)
        .zip(&answers[warmup.len()..])
    {
        let engine = reply.as_ref().map(|r| &r.verdicts);
        if engine != Some(answer) {
            eprintln!(
                "self-check: replay answered {answer:?}, engine {engine:?} for {:?}",
                request.1
            );
            self_check_ok = false;
        }
    }

    let spans = replay.tracer.spans.into_inner();
    let counts = replay.counts.into_inner();
    write_spans(w.name, seed, &spans);

    // Self times: a span's duration minus its children's.
    let mut self_ns: Vec<f64> = spans
        .iter()
        .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
        .collect();
    for s in &spans {
        if let Some(p) = s.parent {
            self_ns[p] -= (s.end - s.start).as_secs_f64() * 1e3;
        }
    }
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    let mut by_family: BTreeMap<&str, f64> = BTreeMap::new();
    let mut request_wall = 0.0;
    for (s, own) in spans.iter().zip(&self_ns) {
        *by_layer.entry(s.name).or_insert(0.0) += own;
        if s.name == "scenarios.cell" {
            *by_family.entry(s.family).or_insert(0.0) += (s.end - s.start).as_secs_f64() * 1e3;
        }
        if s.parent.is_none() {
            request_wall += (s.end - s.start).as_secs_f64() * 1e3;
        }
    }
    let layer = |name: &str| by_layer.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m = Metrics(Vec::new());
    m.put("chromatic.advance_ms", layer("chromatic.advance"), "ms");
    m.put(
        "chromatic.advance_calls",
        count("chromatic.advance_calls"),
        "count",
    );
    m.put("chromatic.chr_step_ms", layer("chromatic.chr_step"), "ms");
    m.put(
        "chromatic.chr_step_calls",
        count("chromatic.chr_step_calls"),
        "count",
    );
    m.put(
        "chromatic.facets_built",
        count("chromatic.facets_built"),
        "count",
    );
    let cache = &timed.cache;
    let hit = |s: CacheStats| ratio(s.hits as f64, (s.hits + s.misses) as f64);
    m.put(
        "cache.subdivision_hit_ratio",
        hit(cache.subdivisions),
        "ratio",
    );
    m.put(
        "cache.domain_table_hit_ratio",
        hit(cache.domain_tables),
        "ratio",
    );
    m.put("cache.plan_hit_ratio", hit(cache.plans), "ratio");
    m.put(
        "cache.evictions",
        (cache.subdivisions.evictions + cache.domain_tables.evictions + cache.plans.evictions)
            as f64,
        "count",
    );
    m.put("cache.lookup_ms", layer("cache.lookup"), "ms");
    m.put(
        "topology.obstruction_ms",
        layer("topology.obstruction"),
        "ms",
    );
    m.put("tasks.build_ms", layer("tasks.build"), "ms");
    m.put("solver.domains_ms", layer("solver.domains"), "ms");
    m.put("solver.plan_ms", layer("solver.plan"), "ms");
    m.put("solver.search_ms", layer("solver.search"), "ms");
    let assignments = count("solver.assignments");
    let backtracks = count("solver.backtracks");
    m.put("solver.assignments", assignments, "count");
    m.put("solver.backtracks", backtracks, "count");
    m.put("solver.prunes", count("solver.prunes"), "count");
    m.put(
        "solver.component_prunes",
        count("solver.component_prunes"),
        "count",
    );
    m.put(
        "solver.useful_ratio",
        if assignments > 0.0 {
            1.0 - backtracks / assignments
        } else {
            0.0
        },
        "ratio",
    );
    m.put(
        "solver.small_path_share",
        ratio(count("solver.small_path_calls"), count("solver.calls")),
        "ratio",
    );
    m.put("act.depths_searched", count("act.depths_searched"), "count");
    m.put(
        "control.overrun_nodes",
        count("control.overrun_nodes"),
        "count",
    );
    m.put("lt.band_select_ms", layer("lt.band_select"), "ms");
    m.put("lt.stabilize_ms", layer("lt.stabilize"), "ms");
    m.put("lt.delta_solve_ms", layer("lt.delta_solve"), "ms");
    m.put("lt.carrier_check_ms", layer("lt.carrier_check"), "ms");
    m.put("models.enumerate_ms", layer("models.enumerate"), "ms");
    m.put("models.filter_ms", layer("models.filter"), "ms");
    m.put(
        "models.admitted_ratio",
        ratio(count("models.admitted"), count("models.enumerated")),
        "ratio",
    );
    m.put("protocol.verify_ms", layer("protocol.verify"), "ms");
    m.put(
        "protocol.commit_adopt_ms",
        layer("protocol.commit_adopt"),
        "ms",
    );
    m.put("protocol.runs", count("protocol.runs"), "count");
    m.put(
        "protocol.rounds_executed",
        count("protocol.rounds_executed"),
        "count",
    );
    m.put("protocol.violations", count("protocol.violations"), "count");
    for family in [
        "wf-classic",
        "wf-affine",
        "rounds-sweep",
        "resilient",
        "geometric",
        "commit-adopt",
    ] {
        let name = format!("scenarios.cell_ms.{family}");
        m.put(name, by_family.get(family).copied().unwrap_or(0.0), "ms");
    }
    let unaccounted: f64 = WRAPPERS.iter().map(|name| layer(name)).sum();
    m.put("engine.unaccounted_ms", unaccounted, "ms");
    m.put(
        "parallel.cpu_per_wall",
        timed
            .cpu
            .map_or(0.0, |cpu| cpu.as_secs_f64() / timed.wall.as_secs_f64()),
        "ratio",
    );
    m.put(
        "trace.coverage",
        ratio(request_wall - unaccounted, request_wall),
        "ratio",
    );
    m.put(
        "trace.overhead_ratio",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64(),
        "ratio",
    );
    eprintln!(
        "traced replay on 1 of {threads} workers: {} spans",
        spans.len()
    );
    TraceReport {
        metrics: m,
        self_check_ok,
    }
}

/// Writes the spans, one JSON object a line, next to the benchmark's
/// sources (`perfbench/out/`, ignored by git). Failure to write is
/// reported and does not fail the run.
fn write_spans(workload: &str, seed: u64, spans: &[Span]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{workload}-{seed}.jsonl");
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"family\": \"{}\", \"request\": {}, \"parent\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.name,
                s.family,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("could not write {path}: {e}");
    }
}
