//! Determinism: equal seeds reproduce everything bit-for-bit; different
//! seeds genuinely differ; the blocked §4.2 name-matching engine is pinned
//! to the legacy serial sweeps (`names_oracle`) on generated corpora, fixed
//! fixtures and proptest databases; the §4.2 string helpers agree with
//! known values and are symmetric; and the §4.1 crawl engine is pinned to
//! a serial fetch-and-extract oracle.

use std::collections::BTreeMap;

use nvd_clean::cleaner::Cleaner;
use nvd_clean::disclosure::{AggregationRule, DisclosureEstimate, DisclosureEstimator};
use nvd_clean::names::text::{levenshtein_at_most, longest_common_substring_len};
use nvd_clean::names::{
    find_product_candidates, find_vendor_candidates, NameMapping, OracleVerifier, Verifier,
};
use nvd_model::prelude::{CpeName, CveEntry, CveId, Database, Date};
use nvd_synth::{generate, SynthConfig};
use nvd_tests::levenshtein;
use proptest::prelude::*;
use webarchive::{CrawlerSet, FetchError, WebArchive};

mod names_oracle;
use names_oracle::{find_product_candidates_legacy, find_vendor_candidates_legacy};

#[test]
fn same_seed_same_corpus_and_cleaning() {
    let run = || {
        let corpus = generate(&SynthConfig::with_scale(0.01, 777));
        let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
        let out = Cleaner::default().clean(&corpus.database, &corpus.archive, &oracle);
        let sev = out.report.severity.as_ref().unwrap();
        (
            out.database.iter().cloned().collect::<Vec<_>>(),
            out.report.disclosure.clone(),
            sev.predictions.clone(),
            sev.chosen,
            out.report.cwe.corrections.clone(),
            out.ledger.clone(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "cleaned entries differ");
    assert_eq!(a.1, b.1, "disclosure estimates differ");
    assert_eq!(a.2, b.2, "severity predictions differ");
    assert_eq!(a.3, b.3, "chosen model differs");
    assert_eq!(a.4, b.4, "CWE corrections differ");
    assert_eq!(a.5, b.5, "quality ledgers differ");
}

#[test]
fn pipeline_is_bit_identical_across_job_counts() {
    // End-to-end version of the minipar determinism contract: corpus
    // generation AND the full cleaning pipeline must agree exactly between
    // the inline path and a wide pool (the CI perf-smoke job re-checks the
    // same property across processes via the NVD_JOBS env var).
    let run = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let corpus = generate(&SynthConfig::with_scale(0.01, 777));
            let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
            let out = Cleaner::default().clean(&corpus.database, &corpus.archive, &oracle);
            (
                corpus.digest(),
                out.database.iter().cloned().collect::<Vec<_>>(),
                out.report.disclosure.clone(),
                out.report.severity.as_ref().unwrap().predictions.clone(),
                out.report.names.vendor_confirmed,
                out.ledger.clone(),
            )
        })
    };
    let serial = run(1);
    let wide = run(6);
    assert_eq!(serial.0, wide.0, "corpus digest diverged");
    assert_eq!(serial.1, wide.1, "cleaned entries diverged");
    assert_eq!(serial.2, wide.2, "disclosure estimates diverged");
    assert_eq!(serial.3, wide.3, "severity predictions diverged");
    assert_eq!(serial.4, wide.4, "name verification diverged");
    assert_eq!(serial.5, wide.5, "quality ledger diverged across jobs");
}

#[test]
fn cwe_rectification_is_bit_identical_across_job_counts() {
    // The mining half of rectify_cwe fans out over minipar; corrections,
    // statistics, and the mutated databases must agree exactly between the
    // inline path and a wide pool.
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let catalog = nvd_model::cwe::CweCatalog::builtin();
    let run = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let mut db = corpus.database.clone();
            let outcome = nvd_clean::rectify_cwe(&mut db, &catalog);
            let entries: Vec<_> = db.iter().cloned().collect();
            (outcome.corrections, outcome.stats, entries)
        })
    };
    let serial = run(1);
    let wide = run(4);
    assert_eq!(serial.0, wide.0, "CWE corrections diverged");
    assert_eq!(serial.1, wide.1, "CWE statistics diverged");
    assert_eq!(serial.2, wide.2, "rectified entries diverged");
}

#[test]
fn name_candidates_are_bit_identical_across_job_counts() {
    // The §4.2 blocked engine fans pair proposal, signal annotation, and
    // the per-vendor product sweeps over minipar; both candidate lists
    // must agree exactly between the inline path and a wide pool.
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
    let run = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let vendor_cands = find_vendor_candidates(&corpus.database);
            let confirmed: Vec<_> = vendor_cands
                .iter()
                .filter(|c| oracle.confirm(c))
                .cloned()
                .collect();
            let mapping = NameMapping::build_vendor(&confirmed, &corpus.database);
            let product_cands = find_product_candidates(&corpus.database, &mapping);
            (vendor_cands, product_cands, mapping)
        })
    };
    let serial = run(1);
    let wide = run(4);
    assert_eq!(serial.0, wide.0, "vendor candidates diverged");
    assert_eq!(serial.1, wide.1, "product candidates diverged");
    // And the blocked engine must reproduce the legacy serial sweeps,
    // the product sweep under the same consolidated vendor mapping.
    assert_eq!(
        serial.0,
        find_vendor_candidates_legacy(&corpus.database),
        "vendor candidates diverged from the legacy replica"
    );
    assert_eq!(
        serial.1,
        find_product_candidates_legacy(&corpus.database, &serial.2),
        "product candidates diverged from the legacy replica"
    );
}

/// One entry per `(vendor, product)` pair, each a single-CPE CVE.
fn db_with(cpes: &[(&str, &str)]) -> Database {
    let mut db = Database::new();
    for (i, (v, p)) in cpes.iter().enumerate() {
        let mut e = CveEntry::new(
            CveId::new(2015, (i + 1) as u32),
            "2015-01-01".parse().unwrap(),
        );
        e.affected.push(CpeName::application(*v, *p));
        db.push(e);
    }
    db
}

#[test]
fn blocked_vendor_sweep_matches_legacy_on_mixed_fixture() {
    // Every block kind fires at least once: strip-specials variants,
    // abbreviations, shared products, product-as-vendor, prefixes, and
    // both edit-distance block flavours.
    let db = db_with(&[
        ("avast", "antivirus"),
        ("avast!", "antivirus"),
        ("lan_management_system", "lms_client"),
        ("lms", "lms_client"),
        ("microsoft", "windows"),
        ("microsft", "office"),
        ("windows", "media_player"),
        ("lynx", "lynx"),
        ("lynx_project", "browser"),
        ("nginx", "nginx"),
        ("igor_sysoev", "nginx"),
        ("oracle", "database"),
    ]);
    assert_eq!(
        find_vendor_candidates(&db),
        find_vendor_candidates_legacy(&db)
    );
}

#[test]
fn blocked_product_sweep_matches_legacy_on_mixed_fixture() {
    // All three heuristics fire, across several vendors, with a pair
    // (internet_explorer / internet-explorer) proposed by both token
    // equivalence and edit distance so the dedup tiebreak is exercised.
    let db = db_with(&[
        ("microsoft", "internet_explorer"),
        ("microsoft", "internet-explorer"),
        ("microsoft", "ie"),
        ("nativesolutions", "tbe_banner_engine"),
        ("nativesolutions", "the_banner_engine"),
        ("cisco", "ucs-e160dp-m1_firmware"),
        ("cisco", "ucs-e140dp-m1_firmware"),
        ("avg", "antivirus"),
        ("avg", "anti-virus"),
    ]);
    let mapping = NameMapping::default();
    assert_eq!(
        find_product_candidates(&db, &mapping),
        find_product_candidates_legacy(&db, &mapping)
    );
}

/// The §4.1 estimate of one entry the way it was computed before the crawl
/// engine existed: fetch each reference serially through
/// [`WebArchive::fetch`], extract via [`CrawlerSet::extract`], then
/// aggregate inline. Shares no code with the engine path, so it stays a
/// fixed oracle however the engine evolves.
fn serial_estimate(
    archive: &WebArchive,
    crawlers: &CrawlerSet,
    rule: AggregationRule,
    entry: &CveEntry,
) -> DisclosureEstimate {
    let mut dates: Vec<Date> = Vec::with_capacity(entry.references.len());
    let mut fetched = 0usize;
    let mut failed = 0usize;
    for reference in &entry.references {
        match archive.fetch(&reference.url) {
            Ok(page) => {
                fetched += 1;
                if let Some(date) = crawlers.extract(page) {
                    dates.push(date);
                }
            }
            Err(FetchError::HostUnreachable { .. }) | Err(FetchError::NotFound { .. }) => {
                failed += 1;
            }
        }
    }
    let extracted = dates.len();
    let aggregated = match rule {
        AggregationRule::Minimum => dates.iter().copied().min(),
        AggregationRule::Median => {
            dates.sort_unstable();
            dates.get(dates.len() / 2).copied()
        }
        AggregationRule::Mean => {
            if dates.is_empty() {
                None
            } else {
                let sum: i64 = dates.iter().map(|d| i64::from(d.day_number())).sum();
                Some(Date::from_day_number((sum / dates.len() as i64) as i32))
            }
        }
    };
    let estimated = match aggregated {
        Some(d) if rule != AggregationRule::Minimum => d,
        Some(d) => d.min(entry.published),
        None => entry.published,
    };
    DisclosureEstimate {
        estimated,
        references: entry.references.len(),
        fetched,
        failed,
        extracted,
    }
}

#[test]
fn scheduled_crawl_is_bit_identical_across_job_counts() {
    // The §4.1 disclosure estimator batches every reference through the
    // webarchive crawl engine and fans fetch + extraction over minipar;
    // under every aggregation rule the per-CVE estimate map must agree
    // exactly between the inline path and a wide pool, and with the serial
    // per-entry oracle.
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let crawlers = CrawlerSet::builtin();
    for rule in [
        AggregationRule::Minimum,
        AggregationRule::Median,
        AggregationRule::Mean,
    ] {
        let run = |jobs: usize| {
            minipar::with_jobs(jobs, || {
                DisclosureEstimator::new(&corpus.archive)
                    .with_rule(rule)
                    .estimate_all(&corpus.database)
            })
        };
        let serial = run(1);
        let wide = run(4);
        assert_eq!(serial, wide, "disclosure estimates diverged across jobs");
        let oracle: BTreeMap<CveId, DisclosureEstimate> = corpus
            .database
            .iter()
            .map(|e| (e.id, serial_estimate(&corpus.archive, &crawlers, rule, e)))
            .collect();
        assert_eq!(
            serial, oracle,
            "scheduled crawl diverged from the serial oracle under {rule:?}"
        );
    }
}

/// Arbitrary small databases over a deliberately tiny alphabet, so the
/// blocking heuristics collide constantly: special-character variants,
/// shared products, prefixes, near-duplicate spellings, digit guards.
/// (The vendored proptest shim has no `collection::vec`, so this is a
/// hand-rolled [`Strategy`] drawing a variable number of CPE pairs.)
#[derive(Debug)]
struct ArbSmallDb;

impl Strategy for ArbSmallDb {
    type Value = Database;

    fn new_value(&self, runner: &mut proptest::test_runner::TestRunner) -> Database {
        let n = (1usize..24).new_value(runner);
        let mut db = Database::new();
        for i in 0..n {
            let vendor = "[ab][abc_!]{0,6}".new_value(runner);
            let product = "[ab][ab0-1_]{0,4}".new_value(runner);
            let mut e = CveEntry::new(
                CveId::new(2019, (i + 1) as u32),
                "2019-01-01".parse().unwrap(),
            );
            e.affected
                .push(CpeName::application(vendor.as_str(), product.as_str()));
            db.push(e);
        }
        db
    }
}

proptest! {
    #[test]
    fn blocked_vendor_sweep_equals_legacy_pair_set(db in ArbSmallDb) {
        let legacy = find_vendor_candidates_legacy(&db);
        let serial = minipar::with_jobs(1, || find_vendor_candidates(&db));
        let wide = minipar::with_jobs(4, || find_vendor_candidates(&db));
        prop_assert_eq!(&serial, &legacy, "blocked sweep diverged from legacy");
        prop_assert_eq!(&serial, &wide, "blocked sweep diverged across jobs");
    }

    #[test]
    fn blocked_product_sweep_equals_legacy_pair_set(db in ArbSmallDb) {
        let mapping = NameMapping::default();
        let legacy = find_product_candidates_legacy(&db, &mapping);
        let serial = minipar::with_jobs(1, || find_product_candidates(&db, &mapping));
        let wide = minipar::with_jobs(4, || find_product_candidates(&db, &mapping));
        prop_assert_eq!(&serial, &legacy, "blocked sweep diverged from legacy");
        prop_assert_eq!(&serial, &wide, "blocked sweep diverged across jobs");
    }
}

#[test]
fn serve_index_build_is_bit_identical_across_job_counts() {
    // ServeIndex construction fans per-shard sorting and posting-list
    // grouping over minipar; the full structural digest (shard tables,
    // vendor/product/CWE/severity postings, date order) must agree exactly
    // between the inline path and a wide pool.
    use nvd_serve::ServeIndex;
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let digest_at =
        |jobs: usize| minipar::with_jobs(jobs, || ServeIndex::build(&corpus.database).digest());
    assert_eq!(
        digest_at(1),
        digest_at(4),
        "serve index digest diverged across jobs"
    );
}

#[test]
fn serve_answers_are_invariant_under_shard_count() {
    // Shard routing is a pure function of the CVE id, so answers — checked
    // via the order-sensitive workload checksum over point-heavy and mixed
    // traffic — must be bit-identical at any shard count and identical to
    // the frozen linear-scan replica.
    use nvd_serve::{generate_workload, run_workload, LinearScan, ServeIndex, WorkloadProfile};
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let scan = LinearScan::new(&corpus.database);
    for profile in [
        WorkloadProfile::point_heavy(2_000),
        WorkloadProfile::mixed(600),
    ] {
        let workload = generate_workload(&corpus.database, &profile, 0xd15c);
        let oracle = run_workload(&scan, &workload);
        for shards in [1, 3, 16, 64] {
            let index = ServeIndex::with_shards(&corpus.database, shards);
            let summary = run_workload(&index, &workload);
            assert_eq!(
                summary, oracle,
                "serve answers diverged from the linear scan at {shards} shards on {profile:?}"
            );
        }
    }
}

#[test]
fn serve_workload_generator_is_seed_stable() {
    // The synthetic query generator is part of the bench contract: equal
    // seeds must reproduce the exact query sequence (at any job count —
    // generation is serial by construction), and different seeds must
    // genuinely differ.
    use nvd_serve::{generate_workload, WorkloadProfile};
    let corpus = generate(&SynthConfig::with_scale(0.01, 4242));
    let profile = WorkloadProfile::mixed(400);
    let a = generate_workload(&corpus.database, &profile, 0xabcd);
    let b = generate_workload(&corpus.database, &profile, 0xabcd);
    let wide = minipar::with_jobs(4, || generate_workload(&corpus.database, &profile, 0xabcd));
    assert_eq!(a, b, "equal seeds must reproduce the workload");
    assert_eq!(a, wide, "workload generation must ignore the job count");
    let c = generate_workload(&corpus.database, &profile, 0xabce);
    assert_ne!(a, c, "seeds must matter to the workload");
}

#[test]
fn incremental_ingestion_is_bit_identical_across_job_counts() {
    // Delta replay through one CleanState must agree exactly between the
    // inline path and a wide pool — at every delta, on both the cleaned
    // corpus and the full report (Debug formatting covers every field,
    // floats included).
    use nvd_clean::{CleanOptions, CleanState};
    use nvd_synth::delta::generate_delta_stream;
    let run = |jobs: usize| {
        minipar::with_jobs(jobs, || {
            let stream = generate_delta_stream(&SynthConfig::with_scale(0.004, 99), 3);
            let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
            let mut state = CleanState::new(CleanOptions {
                run_backport: false,
                ..CleanOptions::default()
            });
            let base: Vec<_> = stream.base.iter().cloned().collect();
            let mut steps: Vec<Vec<CveEntry>> = vec![base];
            steps.extend(stream.feeds.iter().map(|f| f.entries()));
            let mut out = Vec::new();
            for delta in &steps {
                let step = state.apply_delta(delta, &stream.corpus.archive, &oracle);
                out.push((
                    step.database.iter().cloned().collect::<Vec<_>>(),
                    format!("{:?}", step.report),
                    step.ledger,
                ));
            }
            out
        })
    };
    assert_eq!(run(1), run(4), "delta replay diverged across job counts");
}

#[test]
fn warm_serve_updates_match_full_rebuilds_at_any_shard_count() {
    // Absorbing a delta stream through ServeIndex::apply_delta must
    // leave the index digest-identical to a fresh build of each corpus
    // prefix, at every shard count — and the warm update path itself must
    // not care about the job count.
    use nvd_serve::ServeIndex;
    use nvd_synth::delta::generate_delta_stream;
    let stream = generate_delta_stream(&SynthConfig::with_scale(0.004, 99), 3);
    let warm_digests = |jobs: usize, shards: usize| {
        minipar::with_jobs(jobs, || {
            let mut index = ServeIndex::owned(stream.base.clone(), shards);
            let mut out = vec![index.digest()];
            for feed in &stream.feeds {
                index.apply_delta(&feed.entries());
                out.push(index.digest());
            }
            out
        })
    };
    assert_eq!(
        warm_digests(1, 16),
        warm_digests(4, 16),
        "warm updates diverged across job counts"
    );
    for shards in [1usize, 3, 16, 64] {
        let mut db = stream.base.clone();
        let mut fresh = vec![ServeIndex::with_shards(&db, shards).digest()];
        for feed in &stream.feeds {
            for entry in feed.entries() {
                db.push(entry);
            }
            fresh.push(ServeIndex::with_shards(&db, shards).digest());
        }
        assert_eq!(
            warm_digests(1, shards),
            fresh,
            "warm updates diverged from rebuilds at {shards} shards"
        );
    }
}

#[test]
fn served_quality_answers_are_shard_invariant_at_every_delta() {
    // The quality read path rides the same contract as every other query:
    // at every delta, a warm-refreshed quality attachment must answer
    // lookups and histograms identically to the linear-scan replica over
    // the same cleaned database and ledger, at any shard count.
    use nvd_clean::{CleanOptions, CleanState};
    use nvd_serve::{LinearScan, Query, QueryEngine, ScoreAxis, ServeIndex};
    use nvd_synth::delta::generate_delta_stream;
    let stream = generate_delta_stream(&SynthConfig::with_scale(0.004, 99), 3);
    let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
    let mut state = CleanState::new(CleanOptions {
        run_backport: false,
        ..CleanOptions::default()
    });
    let base: Vec<_> = stream.base.iter().cloned().collect();
    let mut steps: Vec<Vec<CveEntry>> = vec![base];
    steps.extend(stream.feeds.iter().map(|f| f.entries()));
    for (i, delta) in steps.iter().enumerate() {
        let out = state.apply_delta(delta, &stream.corpus.archive, &oracle);
        let scan = LinearScan::with_ledger(&out.database, &out.ledger);
        let mut queries: Vec<Query> = out
            .database
            .iter()
            .map(|e| Query::QualityLookup(e.id))
            .collect();
        queries.extend(
            [
                ScoreAxis::Completeness,
                ScoreAxis::Consistency,
                ScoreAxis::Accuracy,
                ScoreAxis::Overall,
            ]
            .map(|axis| Query::QualityHistogram { axis }),
        );
        for shards in [1usize, 4, 16] {
            let index = ServeIndex::with_shards(&out.database, shards).with_quality(&out.ledger);
            for query in &queries {
                assert_eq!(
                    index.execute(query),
                    scan.execute(query),
                    "quality answer diverged at delta {i}, {shards} shards"
                );
            }
        }
    }
}

/// Random delta sequences over [`ArbSmallDb`]-style entries: every entry
/// is assigned an arrival step, and some are redelivered later with a
/// rewritten CPE — covering inserts, modifications, same-id repeats
/// within one delta, and empty deltas.
#[derive(Debug)]
struct ArbDeltaSteps;

impl Strategy for ArbDeltaSteps {
    type Value = Vec<Vec<CveEntry>>;

    fn new_value(&self, runner: &mut proptest::test_runner::TestRunner) -> Self::Value {
        let n = (4usize..16).new_value(runner);
        let step_count = (2usize..5).new_value(runner);
        let mut steps: Vec<Vec<CveEntry>> = vec![Vec::new(); step_count];
        let mut all: Vec<CveEntry> = Vec::new();
        for i in 0..n {
            let vendor = "[ab][abc_!]{0,6}".new_value(runner);
            let product = "[ab][ab0-1_]{0,4}".new_value(runner);
            let mut e = CveEntry::new(
                CveId::new(2019, (i + 1) as u32),
                "2019-01-01".parse().unwrap(),
            );
            e.affected
                .push(CpeName::application(vendor.as_str(), product.as_str()));
            steps[(0..step_count).new_value(runner)].push(e.clone());
            all.push(e);
        }
        for e in &all {
            if (0usize..3).new_value(runner) == 0 {
                let vendor = "[ab][abc_!]{0,6}".new_value(runner);
                let product = "[ab][ab0-1_]{0,4}".new_value(runner);
                let mut m = e.clone();
                m.affected = vec![CpeName::application(vendor.as_str(), product.as_str())];
                steps[(0..step_count).new_value(runner)].push(m);
            }
        }
        steps
    }
}

proptest! {
    #[test]
    fn warm_serve_answers_equal_linear_scan_on_random_delta_sequences(steps in ArbDeltaSteps) {
        // The warm-update digest never hashes names, so this checks the
        // answers themselves: after every delta, each vendor and product
        // ever delivered (evicted ones included) plus one absent name
        // must watch exactly what the scan finds, and the name counts must
        // equal the database's name sets.
        use std::collections::BTreeSet;
        use nvd_model::prelude::{ProductName, VendorName};
        use nvd_serve::{LinearScan, Query, QueryEngine, ServeIndex};
        let mut queries: Vec<Query> = vec![
            Query::VendorWatch(VendorName::new("absent-vendor")),
            Query::ProductWatch(ProductName::new("absent-product")),
            Query::PatchWindow {
                since: "1990-01-01".parse().unwrap(),
                until: "2100-12-31".parse().unwrap(),
            },
            Query::SeverityHistogram { window: None },
            Query::CweHistogram,
        ];
        let cpes: BTreeSet<_> = steps.iter().flatten().flat_map(|e| e.affected.iter()).collect();
        for cpe in cpes {
            queries.push(Query::VendorWatch(cpe.vendor.clone()));
            queries.push(Query::ProductWatch(cpe.product.clone()));
        }
        for shards in [1usize, 3, 16, 64] {
            let mut index = ServeIndex::owned(Database::new(), shards);
            for (i, delta) in steps.iter().enumerate() {
                index.apply_delta(delta);
                let db = index.database();
                let scan = LinearScan::new(db);
                for query in &queries {
                    prop_assert_eq!(
                        index.execute(query),
                        scan.execute(query),
                        "{:?} diverged at delta {}, {} shards",
                        query,
                        i,
                        shards
                    );
                }
                prop_assert_eq!(index.vendor_count(), db.vendor_set().len());
                prop_assert_eq!(index.product_count(), db.product_set().len());
            }
        }
    }
}

proptest! {
    #[test]
    fn incremental_cleaning_equals_batch_on_random_delta_sequences(steps in ArbDeltaSteps) {
        // The tentpole contract, property-sampled: replaying any delta
        // sequence through one CleanState equals batch-cleaning the
        // accumulated corpus from scratch — after every delta.
        use nvd_clean::{CleanOptions, CleanState};
        let archive = webarchive::WebArchive::new();
        let oracle = OracleVerifier::new(std::collections::BTreeMap::new());
        let options = CleanOptions {
            run_backport: false,
            ..CleanOptions::default()
        };
        let mut state = CleanState::new(options.clone());
        let cleaner = Cleaner::new(options);
        for (i, delta) in steps.iter().enumerate() {
            let inc = state.apply_delta(delta, &archive, &oracle);
            let batch = cleaner.clean(state.database(), &archive, &oracle);
            prop_assert_eq!(
                inc.database.as_slice(),
                batch.database.as_slice(),
                "cleaned database diverged at delta {}",
                i
            );
            prop_assert_eq!(
                format!("{:?}", inc.report),
                format!("{:?}", batch.report),
                "report diverged at delta {}",
                i
            );
            prop_assert_eq!(
                &inc.ledger,
                &batch.ledger,
                "quality ledger diverged at delta {}",
                i
            );
        }
    }
}

#[test]
fn different_seed_different_corpus() {
    let a = generate(&SynthConfig::with_scale(0.005, 1));
    let b = generate(&SynthConfig::with_scale(0.005, 2));
    let ea: Vec<_> = a.database.iter().collect();
    let eb: Vec<_> = b.database.iter().collect();
    assert_ne!(ea, eb, "seeds must matter");
}

#[test]
fn scale_controls_size_monotonically() {
    let small = generate(&SynthConfig::with_scale(0.005, 3));
    let large = generate(&SynthConfig::with_scale(0.02, 3));
    assert!(large.database.len() > small.database.len());
    assert!(large.archive.len() > small.archive.len());
    assert!(
        large.database.vendor_set().len() > small.database.vendor_set().len(),
        "vendor universe must scale"
    );
}

#[test]
fn distances_match_known_values() {
    // The textbook pair.
    assert_eq!(levenshtein("kitten", "sitting"), 3);
    // The paper's §4.2 example: a one-character vendor typo.
    assert_eq!(levenshtein("schneider_electric", "chneider_electric"), 1);
    assert_eq!(
        levenshtein_at_most("schneider_electric", "chneider_electric", 2),
        Some(1)
    );
    assert_eq!(
        longest_common_substring_len("schneider_electric", "chneider_electric"),
        17
    );
    assert_eq!(levenshtein("", "abc"), 3);
    assert_eq!(levenshtein("abc", "abc"), 0);
    assert_eq!(longest_common_substring_len("abcdef", "zabcy"), 3);
}

#[test]
fn distances_are_symmetric_on_fixed_corpus() {
    let names = [
        "microsoft",
        "micro_soft",
        "schneider_electric",
        "lan_management_system",
        "lms_manager",
        "hp",
    ];
    for a in names {
        for b in names {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
            assert_eq!(
                levenshtein_at_most(a, b, 2),
                levenshtein_at_most(b, a, 2),
                "{a} vs {b}"
            );
            assert_eq!(
                longest_common_substring_len(a, b),
                longest_common_substring_len(b, a)
            );
        }
    }
}
