//! E8 / F3–F5: the Proposition 9.2 pipeline — building the `L_t`
//! certificate (regions, terminating subdivision, radial projection,
//! chromatic approximation) and running the extracted protocol over
//! `t`-resilient runs.

use criterion::{criterion_group, criterion_main, Criterion};
use gact::{build_lt_showcase, verify_protocol_on_runs};
use gact_iis::{ProcessId, ProcessSet};
use gact_models::{enumerate_runs, RunSampler, SamplerConfig};

fn bench_lt(c: &mut Criterion) {
    let mut group = c.benchmark_group("lt_pipeline");
    group.sample_size(10);

    group.bench_function("build_showcase_2_stages", |b| {
        b.iter(|| build_lt_showcase(2, 1, 2).expect("witness"))
    });

    // The witness the scenario sweep and `Engine::verify` build.
    group.bench_function("build_showcase_3_stages", |b| {
        b.iter(|| build_lt_showcase(2, 1, 3).expect("witness"))
    });

    // The wait-free negative check: every enumerated wait-free run, most
    // of whose snapshots land in no stable simplex.
    group.bench_function("verify_wf_25_runs", |b| {
        let show = build_lt_showcase(2, 1, 3).expect("witness");
        let runs = enumerate_runs(3, 0);
        assert_eq!(runs.len(), 25);
        b.iter(|| {
            let reports = verify_protocol_on_runs(&show.certificate, &show.affine.task, &runs, 14);
            let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
            assert_eq!(violations, 42, "the solo-reaching runs cannot decide");
        });
    });

    group.bench_function("verify_20_runs", |b| {
        let show = build_lt_showcase(2, 1, 2).expect("witness");
        let mut sampler = RunSampler::new(
            3,
            11,
            SamplerConfig {
                max_prefix: 1,
                max_cycle: 2,
            },
        );
        let fast: ProcessSet = [ProcessId(0), ProcessId(1)].into_iter().collect();
        let runs: Vec<_> = (0..20)
            .map(|_| sampler.sample_with_fast(fast, ProcessSet::empty()))
            .collect();
        b.iter(|| {
            let reports = verify_protocol_on_runs(&show.certificate, &show.affine.task, &runs, 12);
            assert!(reports.iter().all(|r| r.violations.is_empty()));
        });
    });

    group.finish();
}

criterion_group!(benches, bench_lt);
criterion_main!(benches);
