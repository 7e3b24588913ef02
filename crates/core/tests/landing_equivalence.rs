//! `GactCertificate::landing_simplex`, which scans only the grid
//! candidates of the first point, against a linear scan over every stable
//! facet: the same landing simplex for every snapshot of the enumerated
//! wait-free and `Res_1` runs of the Proposition 9.2 witness for `L_1`,
//! at 1 and 4 threads.

use std::collections::{HashMap, HashSet};

use gact::{build_lt_showcase, verify_protocol_on_runs, GactCertificate};
use gact_chromatic::{Color, ColorSet};
use gact_iis::{ProcessId, Run};
use gact_models::{enumerate_runs, SubIisModel, TResilient};
use gact_parallel::{par_map, with_threads};
use gact_topology::geometry::EPS;
use gact_topology::{ComplexLocator, Point, Simplex, VertexId};

/// One snapshot: the seen processes' positions, their colors, and the
/// round (the stage bound of its landing).
struct Snapshot {
    points: Vec<Point>,
    colors: ColorSet,
    round: usize,
}

/// The landing simplex by a scan of every stable facet (the search
/// before the grid index existed).
fn linear_landing(
    cert: &GactCertificate,
    loc: &ComplexLocator,
    points: &[Point],
    needed: ColorSet,
    max_stage: usize,
) -> Option<Simplex> {
    let chroma = cert.subdivision.current();
    let mut best: Option<Simplex> = None;
    'facet: for (facet, sl) in loc.entries() {
        if !needed.is_subset_of(chroma.chi(facet)) {
            continue;
        }
        let mut support = vec![false; facet.card()];
        for p in points {
            let Some(lam) = sl.barycentric(p) else {
                continue 'facet;
            };
            if lam.iter().any(|&x| x < -EPS) {
                continue 'facet;
            }
            for (slot, &l) in support.iter_mut().zip(&lam) {
                if l > 1e-9 {
                    *slot = true;
                }
            }
        }
        let mut chosen: Vec<VertexId> = facet
            .iter()
            .zip(&support)
            .filter(|(_, &keep)| keep)
            .map(|(v, _)| v)
            .collect();
        if chosen.is_empty() {
            continue;
        }
        let have: ColorSet = chosen.iter().map(|&v| chroma.color(v)).collect();
        for c in needed.difference(have).iter() {
            chosen.push(chroma.vertex_of_color(facet, c).expect("rainbow facet"));
        }
        let tau = Simplex::new(chosen);
        match cert.subdivision.stage_of(&tau) {
            Some(stage) if stage <= max_stage => {}
            _ => continue,
        }
        match &best {
            Some(b) if (b.card(), b) <= (tau.card(), &tau) => {}
            _ => best = Some(tau),
        }
    }
    best
}

/// Every distinct snapshot of the runs over `rounds` rounds: at round `k`
/// a participant sees the positions the processes it reads held before
/// the round (the full-information view's coordinates).
fn snapshots(runs: &[Run], rounds: usize) -> Vec<Snapshot> {
    let mut seen_keys = HashSet::new();
    let mut out = Vec::new();
    for run in runs {
        let n = run.process_count();
        let mut pos: HashMap<ProcessId, Point> = run
            .part()
            .iter()
            .map(|p| {
                let mut x = vec![0.0; n];
                x[p.0 as usize] = 1.0;
                (p, x)
            })
            .collect();
        for k in 0..rounds {
            let round = run.round(k).clone();
            let pre = pos.clone();
            for p in round.participants().iter() {
                let seen = round.seen_by(p);
                let points: Vec<Point> = seen.iter().map(|q| pre[&q].clone()).collect();
                let colors: ColorSet = seen.iter().map(|q| Color(q.0)).collect();
                let key = (
                    points
                        .iter()
                        .flat_map(|x| x.iter().map(|c| c.to_bits()))
                        .collect::<Vec<_>>(),
                    seen.iter().map(|q| q.0).collect::<Vec<_>>(),
                    k,
                );
                if seen_keys.insert(key) {
                    out.push(Snapshot {
                        points,
                        colors,
                        round: k + 1,
                    });
                }
                let m = seen.len() as f64;
                let (w_self, w_other) = (1.0 / (2.0 * m - 1.0), 2.0 / (2.0 * m - 1.0));
                let mut x = vec![0.0; n];
                for q in seen.iter() {
                    let w = if q == p { w_self } else { w_other };
                    for (acc, v) in x.iter_mut().zip(&pre[&q]) {
                        *acc += w * v;
                    }
                }
                pos.insert(p, x);
            }
        }
    }
    out
}

#[test]
fn indexed_landing_matches_linear_scan_on_enumerated_runs() {
    let show = build_lt_showcase(2, 1, 3).expect("Proposition 9.2 witness");
    let cert = &show.certificate;
    let facets = cert.subdivision.stable_complex().facets();
    let loc = ComplexLocator::new(cert.subdivision.geometry(), facets.iter());
    let wait_free = enumerate_runs(3, 0);
    let res1 = TResilient { n_procs: 3, t: 1 };
    let resilient: Vec<Run> = wait_free
        .iter()
        .filter(|r| res1.contains(r))
        .cloned()
        .collect();
    assert_eq!((wait_free.len(), resilient.len()), (25, 7));

    for runs in [&wait_free, &resilient] {
        let snaps = snapshots(runs, 14);
        let expected: Vec<Option<Simplex>> = snaps
            .iter()
            .map(|s| linear_landing(cert, &loc, &s.points, s.colors, s.round))
            .collect();
        assert!(expected.iter().any(Option::is_some), "some snapshot lands");
        assert!(
            expected.iter().any(Option::is_none),
            "some snapshot does not"
        );
        for threads in [1, 4] {
            let got = with_threads(threads, || {
                par_map(&snaps, |s| {
                    cert.landing_simplex(&s.points, s.colors, s.round)
                })
            });
            assert_eq!(got, expected, "{} runs at {threads} threads", runs.len());
        }
    }
}

#[test]
fn verify_reports_identical_across_thread_counts() {
    let show = build_lt_showcase(2, 1, 3).expect("Proposition 9.2 witness");
    let runs = enumerate_runs(3, 0);
    let digest = |threads: usize| {
        with_threads(threads, || {
            verify_protocol_on_runs(&show.certificate, &show.affine.task, &runs, 14)
                .into_iter()
                .map(|r| {
                    let mut outputs: Vec<(u8, u32)> =
                        r.outputs.iter().map(|(p, v)| (p.0, v.0)).collect();
                    outputs.sort_unstable();
                    (r.rounds, r.violations, outputs)
                })
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(digest(1), digest(4));
}
