//! Incremental ingestion demo: replay a seeded dated delta stream through
//! the carried [`CleanState`] and the warm `nvd-serve` index, timing each
//! delta against a clean-from-scratch + index rebuild of the same corpus,
//! and verifying both paths agree bit for bit.
//!
//! ```text
//! cargo run --release -p nvd-examples --example delta_replay [-- --scale 0.01 --seed 7]
//! ```

use std::time::Instant;

use nvd_clean::cleaner::{CleanOptions, Cleaner};
use nvd_clean::names::OracleVerifier;
use nvd_clean::CleanState;
use nvd_examples::scale_and_seed;
use nvd_model::prelude::Database;
use nvd_serve::ServeIndex;
use nvd_synth::delta::generate_delta_stream;
use nvd_synth::SynthConfig;

const FEED_COUNT: usize = 4;

fn main() {
    let (scale, seed) = scale_and_seed(0.01, 7);
    let stream = generate_delta_stream(&SynthConfig::with_scale(scale, seed), FEED_COUNT);
    let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
    let archive = &stream.corpus.archive;
    // The §4.3 backport is whole-corpus either way; the incremental axis
    // is demonstrated with it off (same as the gated bench).
    let options = CleanOptions {
        run_backport: false,
        ..CleanOptions::default()
    };
    let cleaner = Cleaner::new(options.clone());

    println!(
        "delta stream at scale {scale}, seed {seed}: base snapshot of {} CVEs + {} dated feeds",
        stream.base.len(),
        stream.feeds.len()
    );

    let mut state = CleanState::new(options);
    let mut serve = ServeIndex::owned(Database::new(), ServeIndex::DEFAULT_SHARDS);

    let base: Vec<_> = stream.base.iter().cloned().collect();
    let mut deltas = vec![("base".to_owned(), base)];
    for (i, feed) in stream.feeds.iter().enumerate() {
        deltas.push((format!("feed {}", i + 1), feed.entries()));
    }

    for (label, entries) in &deltas {
        // Incremental path: absorb the delta into the carried clean state
        // and the warm serve index.
        let started = Instant::now();
        let inc = state.apply_delta(entries, archive, &oracle);
        serve.apply_delta(entries);
        let incremental = started.elapsed();

        // Batch path over the same accumulated corpus, for comparison and
        // as a live equivalence check.
        let raw = serve.database();
        let started = Instant::now();
        let batch = cleaner.clean(raw, archive, &oracle);
        let rebuilt = ServeIndex::with_shards(raw, ServeIndex::DEFAULT_SHARDS);
        let from_scratch = started.elapsed();

        assert_eq!(
            inc.database.as_slice(),
            batch.database.as_slice(),
            "clean diverged"
        );
        assert_eq!(
            format!("{:?}", inc.report),
            format!("{:?}", batch.report),
            "report diverged"
        );
        assert_eq!(inc.ledger, batch.ledger, "quality ledger diverged");
        assert_eq!(serve.digest(), rebuilt.digest(), "serve index diverged");

        println!(
            "  {label:<7} +{:>4} entries → {:>5} total: incremental {:>7.2?} vs from-scratch {:>7.2?} ({} vendors confirmed)",
            entries.len(),
            raw.len(),
            incremental,
            from_scratch,
            inc.report.names.vendor_confirmed
        );
    }

    println!(
        "final corpus {} CVEs, serve digest {:016x} — incremental replay matched batch at every delta.",
        serve.len(),
        serve.digest()
    );
}
