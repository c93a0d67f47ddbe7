//! Fault-path bench: what quarantine-and-continue recovery saves over
//! re-cleaning from scratch after a corrupt feed.
//!
//! Run with `BENCH_JSON=BENCH_faults.json cargo bench -p nvd-bench --bench
//! faults` to emit the artifact CI uploads. The gated question,
//! `ingest_recover`: ingesting a corrupt delta through the warm
//! [`CleanState`] quarantine path must beat batch re-cleaning the
//! accumulated corpus from scratch. It parity-asserts before timing: the
//! quarantine ingest is bit-identical to the batch pipeline over the
//! post-admission corpus.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use nvd_bench::BENCH_SEED;
use nvd_clean::cleaner::{CleanOptions, Cleaner};
use nvd_clean::names::OracleVerifier;
use nvd_clean::CleanState;
use nvd_synth::faults::corrupt_delta_stream;
use nvd_synth::SynthConfig;

/// Same stream shape as the ingest benches: every from-scratch sample
/// re-runs the whole pipeline, so the corpus stays modest.
const RECOVER_SCALE: f64 = 0.01;
const FEED_COUNT: usize = 4;

fn options() -> CleanOptions {
    CleanOptions {
        run_backport: false,
        ..CleanOptions::default()
    }
}

fn ingest_recover(c: &mut Criterion) {
    let fs = corrupt_delta_stream(
        &SynthConfig::with_scale(RECOVER_SCALE, BENCH_SEED),
        FEED_COUNT,
        BENCH_SEED,
    );
    let oracle = OracleVerifier::new(fs.stream.corpus.truth.vendor_alias_map());
    let archive = &fs.stream.corpus.archive;
    let cleaner = Cleaner::new(options());

    // The corruption rotation covers all four kinds over four feeds, so a
    // non-poisoned feed with quarantinable items always exists; recover
    // from the last such feed so the state is genuinely warm.
    let target = fs
        .feeds
        .iter()
        .rposition(|f| !f.poisoned && !f.quarantined_ids.is_empty())
        .expect("rotation guarantees a quarantinable feed");
    let label = fs.feeds[target].date.to_string();
    let json = fs.feeds[target].json.as_str();

    // Warm the state on the base and every (clean) feed before the target.
    let mut warmed = CleanState::new(options());
    let base: Vec<_> = fs.stream.base.iter().cloned().collect();
    warmed.apply_delta(&base, archive, &oracle);
    for feed in &fs.stream.feeds[..target] {
        warmed.apply_delta(&feed.entries(), archive, &oracle);
    }

    // Parity gate: quarantine-and-continue must equal batch-cleaning the
    // post-admission corpus, entry for entry and report field for field.
    let mut admitted_state = warmed.clone();
    let outcome = admitted_state
        .ingest_json(&label, json, archive, &oracle)
        .expect("target feed is not poisoned");
    assert!(
        outcome.quarantined.len() >= fs.feeds[target].quarantined_ids.len(),
        "target feed quarantined nothing"
    );
    let raw_after = admitted_state.database().clone();
    let batch = cleaner.clean(&raw_after, archive, &oracle);
    assert_eq!(
        outcome.outcome.database.as_slice(),
        batch.database.as_slice(),
        "quarantine ingest diverged from the batch pipeline"
    );
    assert_eq!(
        format!("{:?}", outcome.outcome.report),
        format!("{:?}", batch.report),
        "quarantine ingest report diverged from the batch pipeline"
    );

    let mut group = c.benchmark_group("ingest_recover");
    group.sample_size(100);
    group.bench_function("quarantine/jobs_1", |b| {
        b.iter_batched(
            || warmed.clone(),
            |mut state| {
                let out = minipar::with_jobs(1, || {
                    state.ingest_json(&label, black_box(json), archive, &oracle)
                });
                (state, out)
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("reclean", |b| {
        b.iter(|| minipar::with_jobs(1, || cleaner.clean(black_box(&raw_after), archive, &oracle)))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ingest_recover
);
criterion_main!(benches);
