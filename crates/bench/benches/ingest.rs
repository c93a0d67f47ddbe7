//! Warm serve-index update bench: absorbing one dated delta through the
//! `nvd-serve` [`ServeIndexState`](nvd_serve::ServeIndexState) vs
//! rebuilding the index over the accumulated corpus.
//!
//! Run with `BENCH_JSON=BENCH_ingest.json cargo bench -p nvd-bench --bench
//! ingest` to emit the artifact CI uploads. The gated question: once the
//! stream is warm, does the in-place update beat a rebuild at one job — on
//! the best observation *and* at the p99 tail? Before any timing the warm
//! index is asserted digest-identical to a rebuild. Incremental cleaning
//! itself is timed end to end by perfbench's `delta_ingest` workload.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use nvd_bench::BENCH_SEED;
use nvd_model::prelude::CveId;
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

    // Warm the serve state on everything but the last feed.
    let mut db = stream.base.clone();
    let mut state = ServeIndex::with_shards(&db, ServeIndex::DEFAULT_SHARDS).into_state();
    let (head, last) = stream.feeds.split_at(FEED_COUNT - 1);
    for feed in head {
        let entries = feed.entries();
        let touched: Vec<CveId> = entries.iter().map(|e| e.id).collect();
        for entry in entries {
            db.push(entry);
        }
        state
            .apply_delta(&db, &touched)
            .expect("push-grown delta applies");
    }
    let last_entries = last[0].entries();
    let touched: Vec<CveId> = last_entries.iter().map(|e| e.id).collect();
    let mut final_db = db.clone();
    for entry in last_entries {
        final_db.push(entry);
    }

    // Parity gate: the warm update must be digest-identical to a rebuild.
    let mut updated = state.clone();
    updated
        .apply_delta(&final_db, &touched)
        .expect("push-grown delta applies");
    assert_eq!(
        updated.digest(),
        ServeIndex::with_shards(&final_db, ServeIndex::DEFAULT_SHARDS).digest(),
        "warm serve update diverged from a rebuild"
    );

    let mut group = c.benchmark_group("ingest_serve");
    group.sample_size(100);
    group.bench_function("apply_delta", |b| {
        b.iter_batched(
            || state.clone(),
            |mut warm| {
                minipar::with_jobs(1, || warm.apply_delta(black_box(&final_db), &touched))
                    .expect("push-grown delta applies");
                warm
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("rebuild", |b| {
        b.iter(|| {
            minipar::with_jobs(1, || {
                ServeIndex::with_shards(black_box(&final_db), ServeIndex::DEFAULT_SHARDS)
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
