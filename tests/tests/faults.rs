//! Fault-path determinism: crawls under seeded fault plans, transactional
//! ingestion of corrupt delta feeds, and rollback-safe serve updates must
//! all be bit-identical at any `NVD_JOBS` and any shard count — and
//! recovery must leave no trace: replay-after-rollback equals a run that
//! never failed.
//!
//! The suite is parameterised by the `NVD_FAULT_SEED` env var (the CI
//! fault-smoke job runs it under two seeds) so the fault surface is not
//! pinned to one lucky plan.

use std::collections::BTreeMap;

use nvd_clean::{CleanOptions, CleanState, IngestError, OracleVerifier};
use nvd_model::feed::{parse_feed_json, to_feed, FeedError};
use nvd_model::prelude::{CpeName, CveEntry, CveId, Database};
use nvd_serve::{ServeIndex, UpdateError};
use nvd_synth::faults::{corrupt_delta_stream, generate_fault_plan};
use nvd_synth::{generate, SynthConfig};
use proptest::prelude::*;
use webarchive::{
    schedule, CrawlEngine, CrawlResult, CrawlerSet, FaultPlan, RequestFate, RetryPolicy,
    WebArchive, DEFAULT_WINDOW,
};

/// The fault seed under test: `NVD_FAULT_SEED` if set, else a fixed
/// default so local runs are reproducible without any environment.
fn fault_seed() -> u64 {
    match std::env::var("NVD_FAULT_SEED") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("NVD_FAULT_SEED must be an integer, got {v:?}")),
        Err(_) => 0xfa17,
    }
}

fn empty_options() -> CleanOptions {
    CleanOptions {
        run_backport: false,
        ..CleanOptions::default()
    }
}

#[test]
fn faulty_crawl_is_bit_identical_across_job_counts() {
    // The retrying engine under a generated mixed fault plan: the schedule
    // and the results — including timeouts and circuit-breaker
    // abandonments — are a pure function of (urls, model, plan), so the
    // inline path and a wide pool must agree exactly.
    let corpus = generate(&SynthConfig::with_scale(0.004, 0xc4a1));
    let plan = generate_fault_plan(fault_seed());
    let crawlers = CrawlerSet::builtin();
    let mut urls: Vec<&str> = corpus.archive.urls().collect();
    urls.sort_unstable();
    let run = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let engine = CrawlEngine::new(&corpus.archive, &crawlers)
                .with_faults(&plan, RetryPolicy::default());
            (engine.schedule(&urls), engine.crawl_results(&urls))
        })
    };
    let serial = run(1);
    let wide = run(4);
    assert_eq!(serial, wide, "faulty crawl diverged across jobs");
    let (sched, results) = serial;
    for (id, (fate, result)) in sched.fates.iter().zip(&results).enumerate() {
        let agrees = match fate {
            RequestFate::Delivered => {
                !matches!(result, CrawlResult::TimedOut | CrawlResult::CircuitOpen)
            }
            RequestFate::TimedOut => *result == CrawlResult::TimedOut,
            RequestFate::CircuitOpen => *result == CrawlResult::CircuitOpen,
        };
        assert!(agrees, "{}: {result:?} contradicts fate {fate:?}", urls[id]);
    }
    // A mixed plan over a real corpus must actually exercise failure.
    assert!(
        results
            .iter()
            .any(|r| matches!(r, CrawlResult::TimedOut | CrawlResult::CircuitOpen)),
        "fault plan produced no failed fetches — seed {}",
        fault_seed()
    );
}

#[test]
fn healthy_corpus_crawl_overlaps_hosts() {
    // Politeness queues plus the bounded window must still overlap hosts on
    // a generated corpus: the summed service time of all requests has to
    // exceed the virtual-clock makespan more than fourfold. All 50 registry
    // hosts fit in DEFAULT_WINDOW at this scale, so this exercises the
    // chain path — the only one real corpora take.
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let urls: Vec<&str> = corpus
        .database
        .iter()
        .flat_map(|e| e.references.iter().map(|r| r.url.as_str()))
        .collect();
    let sched = schedule(
        &urls,
        corpus.archive.latency(),
        DEFAULT_WINDOW,
        &FaultPlan::new(0),
        &RetryPolicy::default(),
    );
    assert_eq!(sched.completions.len(), urls.len());
    let busy: u64 = sched
        .completions
        .iter()
        .map(|c| c.finished_at - c.started_at)
        .sum();
    assert!(
        busy > 4 * sched.makespan,
        "window {DEFAULT_WINDOW} over {} hosts should overlap >4x: makespan {} vs serial {busy}",
        sched.hosts.len(),
        sched.makespan
    );
}

#[test]
fn quarantine_ledger_matches_corruption_ground_truth() {
    // Ingesting a corrupt delta stream: poisoned feeds error and mutate
    // nothing; per-item corruption lands in the quarantine ledger exactly
    // as the generator's ground truth predicts; admitted ids all reach the
    // accumulated corpus. The whole run is bit-identical across job counts.
    let fs = corrupt_delta_stream(&SynthConfig::with_scale(0.004, 0x1e57), 4, fault_seed());
    let run = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let oracle = OracleVerifier::new(fs.stream.corpus.truth.vendor_alias_map());
            let archive = &fs.stream.corpus.archive;
            let mut state = CleanState::new(empty_options());
            let base: Vec<CveEntry> = fs.stream.base.iter().cloned().collect();
            state.apply_delta(&base, archive, &oracle);
            let mut log: Vec<String> = Vec::new();
            for cf in &fs.feeds {
                let label = cf.date.to_string();
                match state.ingest_json(&label, &cf.json, archive, &oracle) {
                    Err(IngestError::MalformedFeed { .. }) => {
                        assert!(cf.poisoned, "only poisoned feeds may fail to ingest");
                        log.push(format!("{label}: rejected"));
                    }
                    Ok(outcome) => {
                        assert!(!cf.poisoned, "poisoned feed {label} was ingested");
                        let mut raw_ids: Vec<String> = outcome
                            .quarantined
                            .iter()
                            .map(|r| r.raw_id.clone())
                            .collect();
                        raw_ids.sort_unstable();
                        raw_ids.dedup();
                        assert_eq!(
                            raw_ids, cf.quarantined_ids,
                            "quarantined ids diverged from ground truth in feed {label}"
                        );
                        for id in &cf.admitted_ids {
                            assert!(
                                state.database().get(id).is_some(),
                                "admitted id {id} missing from the corpus"
                            );
                        }
                        assert!(outcome.quarantined.iter().all(|r| r.feed == label));
                        log.push(format!(
                            "{label}: admitted {} quarantined {:?}",
                            outcome.admitted, outcome.quarantined
                        ));
                    }
                }
            }
            let entries: Vec<CveEntry> = state.database().iter().cloned().collect();
            (log, entries, format!("{:?}", state.quarantine()))
        })
    };
    let serial = run(1);
    let wide = run(4);
    assert_eq!(serial.0, wide.0, "ingestion log diverged across jobs");
    assert_eq!(serial.1, wide.1, "accumulated corpus diverged across jobs");
    assert_eq!(serial.2, wide.2, "quarantine ledger diverged across jobs");
    // The rotation guarantees ≥ 4 feeds cover every corruption kind, so
    // the run above exercised rejection, quarantine, and benign collapse.
    assert!(
        fs.feeds.iter().any(|f| f.poisoned),
        "stream carried no poisoned feed"
    );
    assert!(
        fs.feeds.iter().any(|f| !f.quarantined_ids.is_empty()),
        "stream carried no quarantinable items"
    );
}

#[test]
fn replay_after_rollback_equals_never_having_failed() {
    // The transactional contract end to end: a state that ingests each
    // feed's truncated payload (rolled back with an error), then the clean
    // payload, must be indistinguishable — corpus, report, ledger, and the
    // serve index built from it — from a state that only ever saw the
    // clean payloads.
    let fs = corrupt_delta_stream(&SynthConfig::with_scale(0.004, 0x0ff), 3, fault_seed());
    let oracle = OracleVerifier::new(fs.stream.corpus.truth.vendor_alias_map());
    let archive = &fs.stream.corpus.archive;
    let base: Vec<CveEntry> = fs.stream.base.iter().cloned().collect();

    let mut faulty = CleanState::new(empty_options());
    let mut clean = CleanState::new(empty_options());
    faulty.apply_delta(&base, archive, &oracle);
    clean.apply_delta(&base, archive, &oracle);

    for feed in &fs.stream.feeds {
        let label = feed.date.to_string();
        let good = serde_json::to_string(&feed.document).expect("feed serializes");
        let truncated = &good[..good.len() * 2 / 3];
        assert!(
            matches!(
                faulty.ingest_json(&label, truncated, archive, &oracle),
                Err(IngestError::MalformedFeed { .. })
            ),
            "truncated payload must be rejected"
        );
        let a = faulty
            .ingest_json(&label, &good, archive, &oracle)
            .expect("clean replay ingests");
        let b = clean
            .ingest_json(&label, &good, archive, &oracle)
            .expect("clean payload ingests");
        assert_eq!(
            a.outcome.database.as_slice(),
            b.outcome.database.as_slice(),
            "cleaned corpus diverged after rollback at {label}"
        );
        assert_eq!(
            format!("{:?}", a.outcome.report),
            format!("{:?}", b.outcome.report),
            "clean report diverged after rollback at {label}"
        );
        assert_eq!(
            a.outcome.ledger, b.outcome.ledger,
            "quality ledger diverged after rollback at {label}"
        );
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.quarantined, b.quarantined);
    }
    assert_eq!(
        faulty.quarantine(),
        clean.quarantine(),
        "rolled-back feeds left quarantine records behind"
    );
    let faulty_entries: Vec<CveEntry> = faulty.database().iter().cloned().collect();
    let clean_entries: Vec<CveEntry> = clean.database().iter().cloned().collect();
    assert_eq!(faulty_entries, clean_entries, "raw corpus diverged");
    assert_eq!(
        ServeIndex::build(faulty.database()).digest(),
        ServeIndex::build(clean.database()).digest(),
        "serve index diverged after rollback"
    );
}

#[test]
fn serve_rollback_leaves_digest_identical_at_any_shard_count() {
    // apply_delta's rollback contract at every supported shard count: a
    // rejected update leaves the state digest-identical to a fresh build
    // of the pre-delta corpus, and the corrected replay equals a fresh
    // build of the post-delta corpus.
    let db0 = generate(&SynthConfig::with_scale(0.004, 0x5e2e)).database;
    let missing: CveId = "CVE-1999-9999999".parse().unwrap();
    let mut fresh_entry = db0.iter().next().unwrap().clone();
    fresh_entry.id = "CVE-2031-0001".parse().unwrap();
    for shards in [1usize, 3, 16, 64] {
        let mut state = ServeIndex::with_shards(&db0, shards).into_state();
        assert_eq!(
            state.apply_delta(&db0, &[missing]),
            Err(UpdateError::MissingEntry { id: missing })
        );
        assert_eq!(
            state.digest(),
            ServeIndex::with_shards(&db0, shards).digest(),
            "rejected update tore the state at {shards} shards"
        );
        let mut db = db0.clone();
        db.push(fresh_entry.clone());
        state
            .apply_delta(&db, &[fresh_entry.id])
            .expect("corrected delta applies");
        assert_eq!(
            state.digest(),
            ServeIndex::with_shards(&db, shards).digest(),
            "replayed update diverged from rebuild at {shards} shards"
        );
    }
}

#[test]
fn malformed_feeds_round_trip_through_parse_and_ingest() {
    // The three malformed shapes the issue names, end to end. A truncated
    // payload and a meta-less payload both fail to parse — and fail
    // ingestion without mutating anything; out-of-order published dates
    // are not corruption: they round-trip through the feed format and
    // ingest exactly like apply_delta.
    let mut db = Database::new();
    for (i, date) in ["2020-06-01", "2019-03-04", "2021-12-31"]
        .iter()
        .enumerate()
    {
        let mut e = CveEntry::new(CveId::new(2020, (i + 1) as u32), date.parse().unwrap());
        e.affected.push(CpeName::application("venddor", "prodduct"));
        db.push(e);
    }
    let good = serde_json::to_string(&to_feed(&db, "2022-01-01T00:00Z")).unwrap();

    // Truncated JSON: parse error, typed Json variant.
    let truncated = &good[..good.len() / 2];
    assert!(matches!(
        parse_feed_json(truncated),
        Err(FeedError::Json { .. })
    ));
    // Missing CVE_data_meta: still a parse error, not a panic.
    let meta_less = good.replace("CVE_data_meta", "CVE_data_m3ta");
    assert!(matches!(
        parse_feed_json(&meta_less),
        Err(FeedError::Json { .. })
    ));

    let archive = WebArchive::new();
    let oracle = OracleVerifier::new(BTreeMap::new());
    let mut state = CleanState::new(empty_options());
    for bad in [truncated, meta_less.as_str()] {
        assert!(matches!(
            state.ingest_json("bad", bad, &archive, &oracle),
            Err(IngestError::MalformedFeed { .. })
        ));
        assert_eq!(state.database().len(), 0, "failed ingest mutated the state");
        assert!(state.quarantine().is_empty());
    }

    // Out-of-order dates: the feed round-trips losslessly and ingesting
    // it equals applying the entries directly.
    let doc = parse_feed_json(&good).expect("well-formed feed parses");
    assert_eq!(
        nvd_model::feed::from_feed(&doc)
            .expect("round-trip")
            .as_slice(),
        db.as_slice(),
        "feed round-trip altered the entries"
    );
    let outcome = state
        .ingest_json("ooo-dates", &good, &archive, &oracle)
        .expect("out-of-order dates are admissible");
    assert_eq!(outcome.admitted, db.len());
    assert!(outcome.quarantined.is_empty());
    let mut reference = CleanState::new(empty_options());
    let entries: Vec<CveEntry> = db.iter().cloned().collect();
    let reference_out = reference.apply_delta(&entries, &archive, &oracle);
    assert_eq!(
        outcome.outcome.database.as_slice(),
        reference_out.database.as_slice()
    );
    assert_eq!(
        format!("{:?}", outcome.outcome.report),
        format!("{:?}", reference_out.report)
    );
    assert_eq!(outcome.outcome.ledger, reference_out.ledger);
}

/// Random well-formed delta feeds over a tiny CPE alphabet, as ordered
/// steps: each step is a small distinct-id entry set serialized through
/// the real feed format. (Hand-rolled [`Strategy`] — the vendored
/// proptest shim has no `collection::vec`.)
#[derive(Debug)]
struct ArbFeedSteps;

impl Strategy for ArbFeedSteps {
    type Value = Vec<String>;

    fn new_value(&self, runner: &mut proptest::test_runner::TestRunner) -> Self::Value {
        let step_count = (2usize..5).new_value(runner);
        let mut next_id = 1u32;
        (0..step_count)
            .map(|_| {
                let n = (1usize..6).new_value(runner);
                let mut db = Database::new();
                for _ in 0..n {
                    let vendor = "[ab][abc_!]{0,6}".new_value(runner);
                    let product = "[ab][ab0-1_]{0,4}".new_value(runner);
                    let mut e =
                        CveEntry::new(CveId::new(2019, next_id), "2019-01-01".parse().unwrap());
                    next_id += 1;
                    e.affected
                        .push(CpeName::application(vendor.as_str(), product.as_str()));
                    db.push(e);
                }
                serde_json::to_string(&to_feed(&db, "2019-02-02T00:00Z")).unwrap()
            })
            .collect()
    }
}

proptest! {
    #[test]
    fn inject_rollback_replay_equals_clean_run(feeds in ArbFeedSteps) {
        // Property-sampled rollback contract: before every feed, one state
        // suffers a truncated-payload ingestion (which must error), then
        // both ingest the clean payload — corpus, report and ledger must
        // agree at every step.
        let archive = WebArchive::new();
        let oracle = OracleVerifier::new(BTreeMap::new());
        let mut faulty = CleanState::new(empty_options());
        let mut clean = CleanState::new(empty_options());
        for (i, good) in feeds.iter().enumerate() {
            let label = format!("feed-{i}");
            let truncated = &good[..good.len() * 2 / 3];
            prop_assert!(matches!(
                faulty.ingest_json(&label, truncated, &archive, &oracle),
                Err(IngestError::MalformedFeed { .. })
            ));
            let a = faulty.ingest_json(&label, good, &archive, &oracle).unwrap();
            let b = clean.ingest_json(&label, good, &archive, &oracle).unwrap();
            prop_assert_eq!(
                a.outcome.database.as_slice(),
                b.outcome.database.as_slice(),
                "cleaned corpus diverged at step {}",
                i
            );
            prop_assert_eq!(
                format!("{:?}", a.outcome.report),
                format!("{:?}", b.outcome.report),
                "report diverged at step {}",
                i
            );
            prop_assert_eq!(
                &a.outcome.ledger,
                &b.outcome.ledger,
                "quality ledger diverged at step {}",
                i
            );
        }
        prop_assert_eq!(faulty.quarantine(), clean.quarantine());
        let fa: Vec<CveEntry> = faulty.database().iter().cloned().collect();
        let cl: Vec<CveEntry> = clean.database().iter().cloned().collect();
        prop_assert_eq!(fa, cl, "raw corpus diverged");
    }
}
