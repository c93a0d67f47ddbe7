//! # nvd-serve
//!
//! A sharded read path over the cleaned NVD database — the serving layer of
//! the `nvd-clean` workspace (the Rust reproduction of *"Cleaning the NVD"*,
//! Anwar et al., DSN 2021).
//!
//! The NVD-users study (Wunder et al., arXiv:2408.10695) finds
//! practitioners' top asks are a *faster, more queryable, more reliable*
//! NVD interface. This crate is that interface for an in-memory cleaned
//! corpus: [`ServeIndex`] loads a [`Database`](nvd_model::database::Database)
//! into sharded indexes (hash-sharded CVE id shards, owned sorted
//! vendor/product name universes with per-name postings, CWE /
//! severity-band / publication-date secondary indexes) behind the typed
//! [`Query`] API. [`LinearScan`] is the frozen pre-index replica — every
//! query answered by a full database walk — kept as the benchmark baseline
//! and parity oracle.
//!
//! The index splits into an owned [`ServeIndexState`] plus a borrowed
//! entry view, so dated delta feeds can be absorbed **warm**: detach the
//! state, push the delta into the database, update only the touched
//! shards/postings with [`ServeIndexState::apply_delta`], and re-attach —
//! the result is digest-identical to a full rebuild.
//!
//! The cleaning pipeline's per-CVE quality ledger is served through the
//! same API: attach it with [`ServeIndex::with_quality`] (or refresh a
//! warm state via [`ServeIndexState::set_quality`] after a delta), then
//! ask [`Query::QualityLookup`] for one entry's typed issue record and
//! score, or [`Query::QualityHistogram`] for corpus score-decile counts
//! on any axis. Engines without an attached ledger serve every entry as
//! issue-free, so quality queries stay answerable (and parity-checkable)
//! everywhere. Cost model: `set_quality` scores each attached entry once
//! and keeps per-axis score-decile counts, so a histogram query is O(11)
//! whatever the corpus size; [`LinearScan`] keeps the full ledger walk as
//! the oracle the index is checked against.
//!
//! **Determinism contract:** query answers are *canonical* (see
//! [`query`]), so results are bit-identical at any shard count and any
//! `NVD_JOBS`, and identical between [`ServeIndex`] and [`LinearScan`].
//! The workspace determinism suite and the `serve` bench enforce all three
//! equalities before any timing is taken.
//!
//! [`workload`] generates deterministic synthetic traffic (zipf point
//! lookups, bursty watch scans, mixed range/histogram polls) to drive the
//! benches and any future real front end.
//!
//! ## Example
//!
//! ```
//! use nvd_serve::{Query, QueryEngine, ServeIndex};
//! use nvd_synth::{generate, SynthConfig};
//!
//! let corpus = generate(&SynthConfig::with_scale(0.003, 1));
//! let index = ServeIndex::build(&corpus.database);
//! let entry = corpus.database.iter().next().unwrap();
//! // Point lookup: one shard hash + one binary search.
//! assert_eq!(index.get(entry.id).map(|e| e.id), Some(entry.id));
//! // Watch query: interned postings, ids ascending.
//! let vendor = entry.affected.first().map(|c| c.vendor.clone());
//! if let Some(vendor) = vendor {
//!     let result = index.execute(&Query::VendorWatch(vendor));
//!     assert!(result.len() >= 1);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod index;
pub mod query;
pub mod scan;
pub mod workload;

pub use index::{ServeIndex, ServeIndexState, UpdateError};
pub use nvd_clean::quality::{QualityIssue, QualityLedger, QualityScore, ScoreAxis};
pub use query::{run_workload, Query, QueryEngine, QueryResult, WorkloadSummary};
pub use scan::LinearScan;
pub use workload::{generate_workload, WorkloadProfile};

#[cfg(test)]
mod tests {
    use nvd_model::prelude::{CveId, Database, Date};
    use nvd_synth::{generate, SynthConfig};

    use super::*;

    fn corpus_db() -> Database {
        generate(&SynthConfig::with_scale(0.004, 33)).database
    }

    #[test]
    fn point_lookup_agrees_with_database_index() {
        let db = corpus_db();
        let index = ServeIndex::build(&db);
        assert_eq!(index.len(), db.len());
        for entry in db.iter() {
            assert_eq!(index.get(entry.id).map(|e| e.id), Some(entry.id));
        }
        let absent: CveId = "CVE-1999-9999999".parse().unwrap();
        assert!(index.get(absent).is_none());
    }

    #[test]
    fn every_query_matches_linear_scan() {
        let db = corpus_db();
        let index = ServeIndex::build(&db);
        let scan = LinearScan::new(&db);
        let workload = generate_workload(&db, &WorkloadProfile::mixed(2_000), 5);
        for query in &workload {
            assert_eq!(
                index.execute(query),
                scan.execute(query),
                "index and scan disagree on {query:?}"
            );
        }
    }

    #[test]
    fn shard_count_does_not_change_answers() {
        let db = corpus_db();
        let scan = LinearScan::new(&db);
        let workload = generate_workload(&db, &WorkloadProfile::mixed(1_000), 17);
        let reference = run_workload(&scan, &workload);
        for shards in [1usize, 3, 16, 64] {
            let index = ServeIndex::with_shards(&db, shards);
            assert_eq!(
                run_workload(&index, &workload),
                reference,
                "answers changed at shard_count={shards}"
            );
        }
    }

    #[test]
    fn patch_window_is_date_then_id_ordered() {
        let db = corpus_db();
        let index = ServeIndex::build(&db);
        let stats = db.stats();
        let (min_year, max_year) = stats.year_range.unwrap();
        let since = Date::from_ymd(min_year, 1, 1).unwrap();
        let until = Date::from_ymd(max_year, 12, 31).unwrap();
        let QueryResult::Ids(ids) = index.execute(&Query::PatchWindow { since, until }) else {
            panic!("patch window must return ids");
        };
        assert_eq!(ids.len(), db.len(), "whole-range window covers everything");
        let keyed: Vec<_> = ids
            .iter()
            .map(|id| (db.get(id).unwrap().published, *id))
            .collect();
        assert!(keyed.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn histograms_cover_scored_entries_exactly() {
        let db = corpus_db();
        let index = ServeIndex::build(&db);
        let QueryResult::SeverityHistogram(buckets) =
            index.execute(&Query::SeverityHistogram { window: None })
        else {
            panic!("severity histogram expected");
        };
        let scored = db
            .iter()
            .filter(|e| e.cvss_v2.is_some() || e.cvss_v3.is_some())
            .count();
        assert_eq!(buckets.iter().map(|(_, c)| c).sum::<usize>(), scored);
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(buckets.iter().all(|&(_, c)| c > 0));
    }

    #[test]
    fn build_is_bit_identical_across_job_counts() {
        let db = corpus_db();
        let serial = minipar::with_jobs(1, || ServeIndex::build(&db).digest());
        let wide = minipar::with_jobs(4, || ServeIndex::build(&db).digest());
        assert_eq!(serial, wide, "index build diverged across job counts");
    }

    #[test]
    fn apply_delta_matches_full_rebuild_at_every_feed() {
        let stream = nvd_synth::delta::generate_delta_stream(&SynthConfig::with_scale(0.004, 7), 3);
        for shards in [1usize, 3, 16] {
            let mut db = stream.base.clone();
            let mut state = ServeIndex::with_shards(&db, shards).into_state();
            for feed in &stream.feeds {
                let entries = feed.entries();
                let touched: Vec<CveId> = entries.iter().map(|e| e.id).collect();
                for entry in entries {
                    db.push(entry);
                }
                state.apply_delta(&db, &touched);
                assert_eq!(
                    state.digest(),
                    ServeIndex::with_shards(&db, shards).digest(),
                    "warm state diverged from rebuild at shard_count={shards}"
                );
            }
            let warm = state.attach(&db);
            let fresh = ServeIndex::with_shards(&db, shards);
            let workload = generate_workload(&db, &WorkloadProfile::mixed(1_000), 9);
            assert_eq!(
                run_workload(&warm, &workload),
                run_workload(&fresh, &workload),
                "warm answers diverged at shard_count={shards}"
            );
        }
    }

    #[test]
    fn try_apply_delta_rejects_without_tearing() {
        let db0 = corpus_db();
        let mut state = ServeIndex::with_shards(&db0, 8).into_state();
        let before = state.digest();

        // A touched id the database has never seen.
        let missing: CveId = "CVE-1999-9999999".parse().unwrap();
        assert_eq!(
            state.try_apply_delta(&db0, &[missing]),
            Err(UpdateError::MissingEntry { id: missing })
        );
        assert_eq!(state.digest(), before, "rejected update tore the state");

        // A new entry inserted out of push order: rebuild the database
        // with the fresh entry first, so it is present but misplaced.
        let mut fresh_entry = db0.iter().next().unwrap().clone();
        fresh_entry.id = "CVE-2030-0001".parse().unwrap();
        let mut shuffled = Database::new();
        shuffled.push(fresh_entry.clone());
        for e in db0.iter() {
            shuffled.push(e.clone());
        }
        assert_eq!(
            state.try_apply_delta(&shuffled, &[fresh_entry.id]),
            Err(UpdateError::MisplacedEntry {
                id: fresh_entry.id,
                expected_index: db0.len(),
            })
        );
        assert_eq!(state.digest(), before, "rejected update tore the state");

        // Replaying the corrected delta afterwards equals a fresh build.
        let mut db = db0.clone();
        db.push(fresh_entry.clone());
        state
            .try_apply_delta(&db, &[fresh_entry.id])
            .expect("corrected delta applies");
        assert_eq!(state.digest(), ServeIndex::with_shards(&db, 8).digest());
    }

    #[test]
    fn apply_delta_evicts_and_splices_names() {
        let db0 = corpus_db();
        let mut db = db0.clone();
        let mut state = ServeIndex::with_shards(&db, 8).into_state();
        // Rewrite one entry into another's shape: its old names lose a
        // posting (evicting any singleton name), foreign names gain one
        // (splicing in any new name), its severity bucket and date slot
        // both move.
        let mut iter = db0.iter();
        let victim = iter.next().unwrap();
        let donor = iter.next().unwrap();
        let mut modified = victim.clone();
        modified.affected = donor.affected.clone();
        modified.published = donor.published;
        modified.cvss_v2 = None;
        modified.cvss_v3 = None;
        db.push(modified);
        state.apply_delta(&db, &[victim.id]);
        assert_eq!(state.digest(), ServeIndex::with_shards(&db, 8).digest());
        let warm = state.attach(&db);
        assert_eq!(
            warm.get(victim.id).map(|e| &e.affected),
            Some(&donor.affected)
        );
    }

    /// Cleans the corpus at (0.004, 33) and returns `(cleaned, ledger)`.
    /// Backport off: quality parity does not depend on it and the
    /// stratified training pass dominates test wall-clock.
    fn cleaned_with_ledger() -> (Database, QualityLedger) {
        use nvd_clean::cleaner::{CleanOptions, Cleaner};
        use nvd_clean::names::OracleVerifier;
        let corpus = generate(&SynthConfig::with_scale(0.004, 33));
        let cleaner = Cleaner::new(CleanOptions {
            run_backport: false,
            ..CleanOptions::default()
        });
        let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
        let out = cleaner.clean(&corpus.database, &corpus.archive, &oracle);
        (out.database, out.ledger)
    }

    #[test]
    fn quality_answers_match_linear_scan_at_any_shard_count() {
        let (db, ledger) = cleaned_with_ledger();
        assert!(!ledger.is_empty(), "fixture must surface quality issues");
        let scan = LinearScan::with_ledger(&db, &ledger);
        let absent: CveId = "CVE-1999-9999999".parse().unwrap();
        let axes = [
            ScoreAxis::Completeness,
            ScoreAxis::Consistency,
            ScoreAxis::Accuracy,
            ScoreAxis::Overall,
        ];
        for shards in [1usize, 3, 16] {
            let index = ServeIndex::with_shards(&db, shards).with_quality(&ledger);
            for entry in db.iter() {
                let q = Query::QualityLookup(entry.id);
                assert_eq!(
                    index.execute(&q),
                    scan.execute(&q),
                    "quality lookup diverged at shard_count={shards}"
                );
            }
            assert_eq!(
                index.execute(&Query::QualityLookup(absent)),
                QueryResult::Quality(None)
            );
            for axis in axes {
                let q = Query::QualityHistogram { axis };
                let result = index.execute(&q);
                assert_eq!(
                    result,
                    scan.execute(&q),
                    "quality histogram diverged at shard_count={shards}"
                );
                let QueryResult::QualityHistogram(buckets) = result else {
                    panic!("quality histogram expected");
                };
                assert_eq!(
                    buckets.iter().map(|(_, c)| c).sum::<usize>(),
                    db.len(),
                    "every served entry lands in exactly one bucket"
                );
            }
        }
    }

    #[test]
    fn unattached_quality_serves_perfect_scores() {
        let db = corpus_db();
        let index = ServeIndex::build(&db);
        let scan = LinearScan::new(&db);
        let id = db.iter().next().unwrap().id;
        let hit = index.execute(&Query::QualityLookup(id));
        assert_eq!(hit, scan.execute(&Query::QualityLookup(id)));
        let QueryResult::Quality(Some((score, issues))) = hit else {
            panic!("known id must hit");
        };
        assert_eq!(score, QualityScore::perfect());
        assert!(issues.is_empty());
        let q = Query::QualityHistogram {
            axis: ScoreAxis::Overall,
        };
        assert_eq!(index.execute(&q), scan.execute(&q));
        assert_eq!(
            index.execute(&q),
            QueryResult::QualityHistogram(vec![(10, db.len())])
        );
    }

    #[test]
    fn digest_covers_attached_quality() {
        let (db, ledger) = cleaned_with_ledger();
        let bare = ServeIndex::build(&db).digest();
        let attached = ServeIndex::build(&db).with_quality(&ledger).digest();
        assert_ne!(bare, attached, "attaching a non-empty ledger must show");
        // The warm path — set_quality on a detached state — lands on the
        // same digest as the build-time attach.
        let mut state = ServeIndex::build(&db).into_state();
        state.set_quality(&ledger);
        assert_eq!(state.digest(), attached);
    }

    /// A hand-built ledger: every `stride`-th entry of `db` carries one
    /// to three issues of rotating kinds, half of them auto-fixed.
    fn synthetic_ledger(db: &Database, stride: usize) -> QualityLedger {
        use nvd_clean::quality::{IssueKind, Resolution};
        let mut ledger = QualityLedger::default();
        for (n, entry) in db.iter().enumerate().step_by(stride) {
            for k in 0..=n % 3 {
                let kind = IssueKind::ALL[(n + k) % IssueKind::ALL.len()];
                let resolution = if (n + k) % 2 == 0 {
                    Resolution::NeedsReview
                } else {
                    Resolution::AutoFixed {
                        fix: "f".to_owned(),
                    }
                };
                ledger.emit(
                    entry.id,
                    QualityIssue::new(kind, format!("e{n}"), resolution),
                );
            }
        }
        ledger
    }

    #[test]
    fn warm_quality_histograms_count_appended_entries_and_refresh() {
        fn histograms(engine: &dyn QueryEngine) -> Vec<QueryResult<'_>> {
            [
                ScoreAxis::Completeness,
                ScoreAxis::Consistency,
                ScoreAxis::Accuracy,
                ScoreAxis::Overall,
            ]
            .map(|axis| engine.execute(&Query::QualityHistogram { axis }))
            .to_vec()
        }
        let stream = nvd_synth::delta::generate_delta_stream(&SynthConfig::with_scale(0.004, 7), 2);
        let mut db = stream.base.clone();
        let l0 = synthetic_ledger(&db, 2);
        let mut state = ServeIndex::with_shards(&db, 8)
            .with_quality(&l0)
            .into_state();
        let base_len = db.len();
        for feed in &stream.feeds {
            let entries = feed.entries();
            let touched: Vec<CveId> = entries.iter().map(|e| e.id).collect();
            for entry in entries {
                db.push(entry);
            }
            state.apply_delta(&db, &touched);
        }
        assert!(db.len() > base_len, "the feeds must append new entries");

        // No re-attach: the appended entries serve as issue-free.
        let warm = state.attach(&db);
        assert_eq!(
            histograms(&warm),
            histograms(&LinearScan::with_ledger(&db, &l0)),
            "warm histograms diverged before the ledger refresh"
        );

        // A refresh replaces the counts; a second one must not add to them.
        let l1 = synthetic_ledger(&db, 3);
        let mut state = warm.into_state();
        state.set_quality(&l1);
        state.set_quality(&l1);
        let refreshed = state.attach(&db);
        let scan1 = LinearScan::with_ledger(&db, &l1);
        assert_ne!(
            histograms(&scan1),
            histograms(&LinearScan::with_ledger(&db, &l0)),
            "the two ledgers must score the corpus differently"
        );
        assert_eq!(
            histograms(&refreshed),
            histograms(&scan1),
            "refreshed histograms diverged from the scan"
        );
    }

    #[test]
    fn empty_database_serves_empty_answers() {
        let db = Database::new();
        let index = ServeIndex::with_shards(&db, 4);
        assert!(index.is_empty());
        let absent: CveId = "CVE-2020-0001".parse().unwrap();
        assert_eq!(index.execute(&Query::PointLookup(absent)).len(), 0);
        assert_eq!(index.execute(&Query::CweHistogram).len(), 0);
    }
}
