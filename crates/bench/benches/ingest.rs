//! Warm serve-index update bench: absorbing one dated delta into an owned
//! `nvd-serve` [`ServeIndex`] (the delta's entries pushed into the index's
//! database, then the touched structures updated) vs rebuilding the index
//! over the accumulated corpus.
//!
//! Run with `BENCH_JSON=BENCH_ingest.json cargo bench -p nvd-bench --bench
//! ingest` to emit the artifact CI uploads. The gated question: once the
//! stream is warm, does the in-place update beat a rebuild at one job — on
//! the best observation *and* at the p99 tail? Before any timing the warm
//! index is asserted digest-identical to a rebuild. Incremental cleaning
//! itself is timed end to end by perfbench's `delta_ingest` workload.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use nvd_bench::BENCH_SEED;
use nvd_serve::ServeIndex;
use nvd_synth::delta::generate_delta_stream;
use nvd_synth::SynthConfig;

/// Stream shape: deep enough that the last delta arrives on a genuinely
/// warm state.
const INGEST_SCALE: f64 = 0.01;
const FEED_COUNT: usize = 4;

fn ingest_serve(c: &mut Criterion) {
    let stream = generate_delta_stream(
        &SynthConfig::with_scale(INGEST_SCALE, BENCH_SEED),
        FEED_COUNT,
    );

    // Warm the serve index on everything but the last feed.
    let mut index = ServeIndex::owned(stream.base.clone(), ServeIndex::DEFAULT_SHARDS);
    let (head, last) = stream.feeds.split_at(FEED_COUNT - 1);
    for feed in head {
        index.apply_delta(&feed.entries());
    }
    let delta = last[0].entries();

    // Parity gate: the warm update must be digest-identical to a rebuild.
    let mut updated = index.clone();
    updated.apply_delta(&delta);
    let final_db = updated.database();
    assert_eq!(
        updated.digest(),
        ServeIndex::with_shards(final_db, ServeIndex::DEFAULT_SHARDS).digest(),
        "warm serve update diverged from a rebuild"
    );

    let mut group = c.benchmark_group("ingest_serve");
    group.sample_size(100);
    group.bench_function("apply_delta", |b| {
        b.iter_batched(
            || index.clone(),
            |mut warm| {
                minipar::with_jobs(1, || warm.apply_delta(black_box(&delta)));
                warm
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("rebuild", |b| {
        b.iter(|| {
            minipar::with_jobs(1, || {
                ServeIndex::with_shards(black_box(final_db), ServeIndex::DEFAULT_SHARDS)
            })
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ingest_serve
);
criterion_main!(benches);
