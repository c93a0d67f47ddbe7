//! Incremental ingestion: delta-aware cleaning with carry-over state.
//!
//! The real NVD is a stream of dated `recent`/`modified` feeds, not a
//! one-shot batch file. [`CleanState::apply_delta`] is the one place the
//! §4.1–§4.4 stage sequence runs; [`crate::cleaner::Cleaner::clean`] *is*
//! one delta — the whole corpus applied to a fresh state. Across deltas the
//! state makes the pipeline pay only for what changed: it accumulates
//! delivered entries and persists,
//!
//! - per-CVE **disclosure estimates** (§4.1) — only touched CVEs are
//!   re-crawled, sound because per-URL crawl results are batch-invariant
//!   (pinned in `disclosure::engine_matches_legacy_per_entry`);
//! - the §4.2 **sweep carry-over**: the [`VendorSweepCache`] reuses edit
//!   blocks and pair annotations whose inputs are untouched, and the
//!   [`ProductSweepCache`] re-sweeps only vendors whose (consolidated)
//!   product set changed. Both are the sweeps' own caches — the public
//!   `find_*_candidates` functions are the same sweeps over fresh ones;
//! - per-CVE **mined CWE ids** (§4.4) — descriptions are scanned once per
//!   delivered version, then replayed through the serial apply half.
//!
//! The §4.3 severity backport is the one stage that stays whole-corpus:
//! its stratified train/test split is a global function of the label
//! population, so any touched entry can reshuffle it. It is re-run per
//! delta when enabled (pure — it never mutates the database).
//!
//! # The determinism contract
//!
//! Applying deltas `d1..dn` through one [`CleanState`] returns, at every
//! step, **bit-identical** results to cleaning the accumulated corpus from
//! scratch with the same options (one delta into a fresh state) — at any
//! `NVD_JOBS`. The caches above never change *what* is computed, only
//! whether a pure per-item result is recomputed; `tests/determinism.rs`
//! enforces the contract over seeded and property-sampled delta sequences.
//!
//! # Transactional ingestion
//!
//! Raw feeds enter through [`CleanState::ingest_json`] /
//! [`CleanState::ingest_document`] with validate-then-commit semantics: a
//! feed that fails to parse mutates nothing ([`IngestError`]), poison
//! *items* inside a parseable feed are isolated into the
//! [`QuarantineLedger`] while the rest are admitted, and replaying a
//! corrected feed after a rollback is bit-identical to never having seen
//! the broken one (`tests/faults.rs` proves both properties over seeded
//! and property-sampled corruption).
//!
//! # Lifecycle
//!
//! ```
//! use nvd_clean::incremental::CleanState;
//! use nvd_clean::cleaner::CleanOptions;
//! use nvd_clean::names::OracleVerifier;
//! use nvd_synth::delta::generate_delta_stream;
//! use nvd_synth::SynthConfig;
//!
//! let stream = generate_delta_stream(&SynthConfig::with_scale(0.002, 7), 3);
//! let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
//! let mut state = CleanState::new(CleanOptions {
//!     run_backport: false,
//!     ..CleanOptions::default()
//! });
//! // The base snapshot is just the first (large) delta.
//! let base: Vec<_> = stream.base.iter().cloned().collect();
//! state.apply_delta(&base, &stream.corpus.archive, &oracle);
//! for feed in &stream.feeds {
//!     let out = state.apply_delta(&feed.entries(), &stream.corpus.archive, &oracle);
//!     assert_eq!(out.database.len(), out.report.disclosure.len());
//! }
//! ```

use std::collections::{BTreeMap, BTreeSet};

use nvd_model::cwe::{CweCatalog, CweId};
use nvd_model::entry::CveEntry;
use nvd_model::feed::{item_to_entry, parse_feed_json, FeedDocument, FeedError};
use nvd_model::prelude::{CveId, Database, VendorName};
use webarchive::WebArchive;

use crate::cleaner::{CleanOptions, CleanOutcome, CleanReport, NameReport};
use crate::cwe_fix::{apply_mined_cwe_ids, mine_entry_cwe_ids, CweFixOutcome};
use crate::disclosure::{DisclosureEstimate, DisclosureEstimator};
use crate::names::{
    confirm_product, find_product_candidates_cached, find_vendor_candidates_cached, NameMapping,
    PatternBreakdown, ProductSweepCache, VendorSweepCache, Verifier,
};
use crate::quality::QualityLedger;
use crate::severity::{backport_v3, can_backport};

/// Why one feed failed to ingest as a whole. Produced by
/// [`CleanState::ingest_json`] *before* any state mutation: an `Err`
/// leaves the state bit-identical to never having seen the feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The feed text is not a parseable feed document (truncated JSON,
    /// schema mismatch).
    MalformedFeed {
        /// The underlying parse error.
        msg: String,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MalformedFeed { msg } => write!(f, "ingest: malformed feed: {msg}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Why one feed item was quarantined instead of admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The item failed to convert: malformed id, date, vector string,
    /// CWE label or CPE URI.
    MalformedItem {
        /// The conversion error.
        msg: String,
    },
    /// The item's CVE id appears more than once in the feed with
    /// *different* content, so no copy can be trusted. (Identical
    /// repeats are collapsed silently: the first copy is admitted.)
    ConflictingDuplicate,
}

/// One quarantined feed item: which feed it arrived in, the raw id string
/// it carried, and why it was isolated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The caller's label for the feed (e.g. its date).
    pub feed: String,
    /// The raw `CVE_data_meta.ID` string of the item (not necessarily a
    /// valid CVE id).
    pub raw_id: String,
    /// Why the item was quarantined.
    pub reason: QuarantineReason,
}

/// The accumulated quarantine ledger: every poison item isolated across
/// all ingested feeds, in ingestion order. Deterministic — bit-identical
/// at any `NVD_JOBS` — because quarantine decisions are made serially in
/// feed order during validation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineLedger {
    records: Vec<QuarantineRecord>,
}

impl QuarantineLedger {
    /// All records, in ingestion order.
    pub fn records(&self) -> &[QuarantineRecord] {
        &self.records
    }

    /// Number of quarantined items.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been quarantined.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// What one successful transactional ingest produced.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// The clean outcome over the accumulated corpus: cleaned database,
    /// report, and the quality ledger (this feed's quarantined items
    /// included as [`crate::quality::IssueKind::Quarantined`] issues).
    pub outcome: CleanOutcome,
    /// Number of entries admitted from this feed (identical repeats
    /// collapse into one admission).
    pub admitted: usize,
    /// The items quarantined from this feed, in feed order (also appended
    /// to [`CleanState::quarantine`]).
    pub quarantined: Vec<QuarantineRecord>,
}

/// Persistent cleaning state for incremental ingestion. See the module
/// docs for the carried caches and the determinism contract.
#[derive(Debug, Clone)]
pub struct CleanState {
    options: CleanOptions,
    /// The accumulated raw corpus (every delivered entry, latest version).
    database: Database,
    disclosure: BTreeMap<CveId, DisclosureEstimate>,
    vendor_cache: VendorSweepCache,
    product_cache: ProductSweepCache,
    cwe_mined: BTreeMap<CveId, Vec<CweId>>,
    quarantine: QuarantineLedger,
}

impl CleanState {
    /// An empty state; the base snapshot is applied as the first delta.
    pub fn new(options: CleanOptions) -> Self {
        Self {
            options,
            database: Database::new(),
            disclosure: BTreeMap::new(),
            vendor_cache: VendorSweepCache::default(),
            product_cache: ProductSweepCache::default(),
            cwe_mined: BTreeMap::new(),
            quarantine: QuarantineLedger::default(),
        }
    }

    /// The accumulated quarantine ledger over every ingested feed.
    pub fn quarantine(&self) -> &QuarantineLedger {
        &self.quarantine
    }

    /// The accumulated raw (uncleaned) corpus: every delivered entry in
    /// arrival order, same-id redeliveries replaced in place.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The carried per-CVE disclosure estimates.
    pub fn disclosure(&self) -> &BTreeMap<CveId, DisclosureEstimate> {
        &self.disclosure
    }

    /// Applies one dated delta (new CVEs and modified redeliveries),
    /// returning the cleaned accumulated corpus, its report, and the
    /// quality ledger — bit-identical to
    /// `Cleaner::new(options).clean(state.database(), …)`, i.e. to the same
    /// corpus applied as one delta to a fresh state (the ledger
    /// additionally carries [`crate::quality::IssueKind::Quarantined`]
    /// issues for items the ingest path isolated, which a batch clean
    /// never sees).
    pub fn apply_delta<V: Verifier + Sync>(
        &mut self,
        delta: &[CveEntry],
        archive: &WebArchive,
        verifier: &V,
    ) -> CleanOutcome {
        // Fold the delta into the accumulated corpus. The §4.2 dirty set
        // collects every vendor whose CPE rows may change — those of each
        // delivered entry's old and new versions.
        let mut touched: BTreeSet<CveId> = BTreeSet::new();
        let mut dirty_vendors: BTreeSet<VendorName> = BTreeSet::new();
        for entry in delta {
            if let Some(old) = self.database.get(&entry.id) {
                dirty_vendors.extend(old.affected.iter().map(|c| c.vendor.clone()));
            }
            dirty_vendors.extend(entry.affected.iter().map(|c| c.vendor.clone()));
            touched.insert(entry.id);
            self.database.push(entry.clone());
        }

        // The touched entries, latest version, in id order: both the §4.1
        // and the §4.4 mining pass below work on exactly these.
        let touched_entries: Vec<&CveEntry> = touched
            .iter()
            .map(|id| self.database.get(id).expect("just pushed"))
            .collect();

        // §4.1 — disclosure for touched CVEs only. Crawl results are pure
        // per (archive, crawlers, url) and the estimate folds one entry's
        // results, so estimating the touched entries equals the
        // corresponding slice of a full-corpus estimate.
        let estimator = DisclosureEstimator::new(archive)
            .with_crawlers(self.options.crawlers.clone())
            .with_rule(self.options.aggregation);
        self.disclosure
            .extend(estimator.estimate_entries(&touched_entries));

        // §4.4 mining half — re-scan only touched entries' descriptions
        // (the names pass below never edits descriptions, so mining the
        // raw entry equals mining the name-cleaned one).
        let catalog = CweCatalog::builtin();
        let mined = minipar::par_map(&touched_entries, |e| mine_entry_cwe_ids(e, &catalog));
        for (id, ids) in touched.iter().zip(mined) {
            self.cwe_mined.insert(*id, ids);
        }

        // §4.2 — vendor names through the sweep carry-over; verification
        // and mapping construction are cheap whole-corpus passes, re-run on
        // every delta. Pair verification stands in for the paper's manual
        // review of every flagged pair: per-pair work with no cross-pair
        // state, so it maps in candidate order.
        let vendor_candidates =
            find_vendor_candidates_cached(&self.database, &mut self.vendor_cache, &dirty_vendors);
        let confirmed_flags: Vec<bool> =
            minipar::par_map(&vendor_candidates, |c| verifier.confirm(c));
        let confirmed: Vec<_> = vendor_candidates
            .iter()
            .zip(&confirmed_flags)
            .filter(|(_, &ok)| ok)
            .map(|(c, _)| c.clone())
            .collect();
        let pattern_breakdown = PatternBreakdown::tabulate(&vendor_candidates, &confirmed_flags);
        let mut mapping = NameMapping::build_vendor(&confirmed, &self.database);

        // §4.2 — product names: rebuild the consolidated vendor → products
        // map (the mapping may have changed), then re-sweep only vendors
        // whose product set did.
        let product_candidates =
            find_product_candidates_cached(&self.database, &mapping, &mut self.product_cache);
        let product_confirmed: Vec<_> = product_candidates
            .iter()
            .filter(|c| confirm_product(c))
            .cloned()
            .collect();
        mapping.extend_products(&product_confirmed, &self.database);

        let mut cleaned = self.database.clone();
        let vendors_before = cleaned.vendor_set().len();
        let products_before = cleaned.product_set().len();
        let apply_stats = mapping.apply(&mut cleaned);
        let names = NameReport {
            vendors_before,
            vendors_after: cleaned.vendor_set().len(),
            products_before,
            products_after: cleaned.product_set().len(),
            vendor_candidates: vendor_candidates.len(),
            vendor_confirmed: confirmed.len(),
            product_candidates: product_candidates.len(),
            product_confirmed: product_confirmed.len(),
            pattern_breakdown,
            mapping,
            apply_stats,
        };

        // §4.4 apply half — replay the cached mined ids serially in entry
        // order, exactly as `rectify_cwe` would.
        let mined_per_entry: Vec<Vec<CweId>> = cleaned
            .iter()
            .map(|e| self.cwe_mined.get(&e.id).expect("mined on arrival").clone())
            .collect();
        let cwe: CweFixOutcome = apply_mined_cwe_ids(&mut cleaned, mined_per_entry);

        // §4.3 — severity backport: inherently whole-corpus (stratified
        // split over the label population), re-run when enabled and the
        // accumulated corpus holds enough ground truth.
        let severity = if self.options.run_backport && can_backport(&cleaned) {
            Some(backport_v3(&cleaned, &self.options.backport))
        } else {
            None
        };

        let disclosure = self.disclosure.clone();
        let report = CleanReport {
            disclosure,
            names,
            severity,
            cwe,
        };
        // Quality assessment over the whole accumulated corpus: detectors
        // read only (cleaned, report, quarantine), all of which the caches
        // above reproduce exactly, so the ledger is bit-identical batch vs
        // incremental at every step.
        let ledger = QualityLedger::assemble(&cleaned, &report, &self.quarantine);
        CleanOutcome {
            database: cleaned,
            report,
            ledger,
        }
    }

    /// Transactionally ingests one feed from raw JSON text.
    ///
    /// Validate-then-commit, all-or-nothing at the feed level: the text is
    /// parsed and every item converted *before* any state is touched, so
    /// an `Err` (truncated or schema-broken JSON) provably mutates
    /// nothing — re-ingesting a corrected feed afterwards is bit-identical
    /// to never having seen the broken one. Within a parseable feed,
    /// poison *items* are isolated into the quarantine ledger and the
    /// rest are admitted; see [`CleanState::ingest_document`].
    ///
    /// # Errors
    ///
    /// [`IngestError::MalformedFeed`] when the text does not parse as a
    /// feed document.
    pub fn ingest_json<V: Verifier + Sync>(
        &mut self,
        feed_label: &str,
        json: &str,
        archive: &WebArchive,
        verifier: &V,
    ) -> Result<IngestOutcome, IngestError> {
        let doc =
            parse_feed_json(json).map_err(|e| IngestError::MalformedFeed { msg: e.to_string() })?;
        Ok(self.ingest_document(feed_label, &doc, archive, verifier))
    }

    /// Transactionally ingests one parsed feed document.
    ///
    /// The validation phase converts every item and groups duplicates
    /// without touching `self`:
    ///
    /// * items that fail to convert are quarantined as
    ///   [`QuarantineReason::MalformedItem`];
    /// * ids repeated with identical content collapse benignly — the
    ///   first copy is admitted, the repeats are dropped silently;
    /// * ids repeated with *conflicting* content quarantine every copy
    ///   ([`QuarantineReason::ConflictingDuplicate`]): no copy can be
    ///   trusted, and admitting one arbitrarily would poison the corpus.
    ///
    /// Only then does the commit phase run: one ordinary
    /// [`CleanState::apply_delta`] over the admitted entries (in feed
    /// order) plus a ledger append — both infallible, so a feed either
    /// commits in full or, had validation been an error path, would have
    /// left the state untouched.
    pub fn ingest_document<V: Verifier + Sync>(
        &mut self,
        feed_label: &str,
        doc: &FeedDocument,
        archive: &WebArchive,
        verifier: &V,
    ) -> IngestOutcome {
        // Validation: convert every item, recording per-item quarantine
        // reasons, with no self-mutation.
        let mut converted: Vec<Option<CveEntry>> = Vec::with_capacity(doc.items.len());
        let mut reasons: Vec<Option<QuarantineReason>> = vec![None; doc.items.len()];
        for (i, item) in doc.items.iter().enumerate() {
            match item_to_entry(item) {
                Ok(entry) => converted.push(Some(entry)),
                Err(e) => {
                    let msg = match e {
                        FeedError::Item { msg, .. } => msg,
                        other => other.to_string(),
                    };
                    reasons[i] = Some(QuarantineReason::MalformedItem { msg });
                    converted.push(None);
                }
            }
        }

        // Duplicate grouping over the successfully converted items.
        let mut occurrences: BTreeMap<CveId, Vec<usize>> = BTreeMap::new();
        for (i, entry) in converted.iter().enumerate() {
            if let Some(entry) = entry {
                occurrences.entry(entry.id).or_default().push(i);
            }
        }
        let mut drop = vec![false; doc.items.len()];
        for occ in occurrences.values() {
            if occ.len() < 2 {
                continue;
            }
            let first = converted[occ[0]].as_ref().expect("converted occurrence");
            if occ[1..]
                .iter()
                .all(|&i| converted[i].as_ref().expect("converted occurrence") == first)
            {
                // Benign repeat: admit the first copy, drop the rest.
                for &i in &occ[1..] {
                    drop[i] = true;
                }
            } else {
                for &i in occ {
                    drop[i] = true;
                    reasons[i] = Some(QuarantineReason::ConflictingDuplicate);
                }
            }
        }

        let quarantined: Vec<QuarantineRecord> = reasons
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                r.as_ref().map(|reason| QuarantineRecord {
                    feed: feed_label.to_owned(),
                    raw_id: doc.items[i].cve.meta.id.clone(),
                    reason: reason.clone(),
                })
            })
            .collect();
        let admitted: Vec<CveEntry> = converted
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !drop[*i] && reasons[*i].is_none())
            .filter_map(|(_, e)| e)
            .collect();

        // Commit: infallible from here on. The quarantine append precedes
        // the delta so the returned ledger already carries this feed's
        // `Quarantined` issues.
        self.quarantine.records.extend(quarantined.iter().cloned());
        let outcome = self.apply_delta(&admitted, archive, verifier);
        IngestOutcome {
            outcome,
            admitted: admitted.len(),
            quarantined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::OracleVerifier;
    use crate::reference::reference_clean;
    use nvd_synth::delta::generate_delta_stream;
    use nvd_synth::SynthConfig;

    fn options() -> CleanOptions {
        CleanOptions {
            run_backport: false,
            ..CleanOptions::default()
        }
    }

    #[test]
    fn incremental_equals_batch_at_every_delta() {
        let stream = generate_delta_stream(&SynthConfig::with_scale(0.002, 0x1234), 3);
        let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
        let mut state = CleanState::new(options());

        let base: Vec<_> = stream.base.iter().cloned().collect();
        let mut steps: Vec<Vec<CveEntry>> = vec![base];
        steps.extend(stream.feeds.iter().map(|f| f.entries()));

        for (i, delta) in steps.iter().enumerate() {
            let inc = state.apply_delta(delta, &stream.corpus.archive, &oracle);
            let batch = reference_clean(
                state.database(),
                &stream.corpus.archive,
                &oracle,
                &options(),
            );
            assert_eq!(
                inc.database.as_slice(),
                batch.database.as_slice(),
                "cleaned database diverged after delta {i}"
            );
            // Debug formatting covers every report field, floats included.
            assert_eq!(
                format!("{:?}", inc.report),
                format!("{:?}", batch.report),
                "report diverged after delta {i}"
            );
            assert_eq!(
                inc.ledger, batch.ledger,
                "quality ledger diverged after delta {i}"
            );
        }
    }

    #[test]
    fn tiny_first_delta_skips_backport_then_matches_batch() {
        // The backport stays on: a 10-entry first delta cannot hold the
        // ground truth it needs, so it ingests with `severity: None`.
        let stream = generate_delta_stream(&SynthConfig::with_scale(0.002, 0x1234), 2);
        let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
        let mut state = CleanState::new(CleanOptions::default());

        let base: Vec<_> = stream.base.iter().cloned().collect();
        let mut steps: Vec<Vec<CveEntry>> = vec![base[..10].to_vec(), base[10..].to_vec()];
        steps.extend(stream.feeds.iter().map(|f| f.entries()));

        for (i, delta) in steps.iter().enumerate() {
            let inc = state.apply_delta(delta, &stream.corpus.archive, &oracle);
            assert_eq!(
                inc.report.severity.is_some(),
                i > 0,
                "backport ran (or was skipped) wrongly after delta {i}"
            );
            let batch = reference_clean(
                state.database(),
                &stream.corpus.archive,
                &oracle,
                &CleanOptions::default(),
            );
            assert_eq!(
                inc.database.as_slice(),
                batch.database.as_slice(),
                "cleaned database diverged after delta {i}"
            );
            assert_eq!(
                format!("{:?}", inc.report),
                format!("{:?}", batch.report),
                "report diverged after delta {i}"
            );
            assert_eq!(
                inc.ledger, batch.ledger,
                "quality ledger diverged after delta {i}"
            );
        }
    }

    #[test]
    fn malformed_feed_json_mutates_nothing() {
        let stream = generate_delta_stream(&SynthConfig::with_scale(0.002, 0x42), 2);
        let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
        let mut state = CleanState::new(options());
        let base: Vec<_> = stream.base.iter().cloned().collect();
        state.apply_delta(&base, &stream.corpus.archive, &oracle);
        let before = state.clone();

        let good = serde_json::to_string(&nvd_model::feed::to_feed(
            &Database::from_entries(stream.feeds[0].entries()),
            "t",
        ))
        .unwrap();
        let truncated = &good[..good.len() * 2 / 3];
        let err = state
            .ingest_json("2020-01-01", truncated, &stream.corpus.archive, &oracle)
            .unwrap_err();
        assert!(matches!(err, IngestError::MalformedFeed { .. }));

        // Rollback is trivial because nothing moved: the state still
        // cleans bit-identically to the pre-failure snapshot.
        assert_eq!(state.database().as_slice(), before.database().as_slice());
        assert_eq!(state.quarantine(), before.quarantine());
        let mut replay = state.clone();
        let out = replay
            .ingest_json("2020-01-01", &good, &stream.corpus.archive, &oracle)
            .unwrap();
        let mut clean_only = before.clone();
        let clean = clean_only
            .ingest_json("2020-01-01", &good, &stream.corpus.archive, &oracle)
            .unwrap();
        assert_eq!(
            out.outcome.database.as_slice(),
            clean.outcome.database.as_slice()
        );
        assert_eq!(
            format!("{:?}", out.outcome.report),
            format!("{:?}", clean.outcome.report)
        );
        assert_eq!(out.outcome.ledger, clean.outcome.ledger);
    }

    #[test]
    fn ingest_quarantines_poison_items_and_admits_the_rest() {
        let stream = generate_delta_stream(&SynthConfig::with_scale(0.002, 0x99), 2);
        let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
        let mut state = CleanState::new(options());
        let base: Vec<_> = stream.base.iter().cloned().collect();
        state.apply_delta(&base, &stream.corpus.archive, &oracle);

        let feed_db = Database::from_entries(stream.feeds[0].entries());
        let mut doc = nvd_model::feed::to_feed(&feed_db, "t");
        let total = doc.items.len();
        assert!(total >= 3, "need a non-trivial feed");
        // Item 0: malformed id. Item 1: conflicting duplicate (repeat with
        // a mutated date). Last item: identical benign repeat.
        doc.items[0].cve.meta.id = "CVE-BROKEN".to_owned();
        let mut conflict = doc.items[1].clone();
        conflict.published_date = "1999-01-01".to_owned();
        doc.items.push(conflict);
        let benign = doc.items[total - 1].clone();
        doc.items.push(benign);

        let conflict_id: CveId = doc.items[1].cve.meta.id.parse().unwrap();
        let conflict_before = state.database().get(&conflict_id).cloned();
        let out = state.ingest_document("2020-02-02", &doc, &stream.corpus.archive, &oracle);
        assert_eq!(out.admitted, total - 2, "all but the two poison items");
        assert_eq!(out.quarantined.len(), 3, "broken id + both conflict copies");
        assert!(matches!(
            out.quarantined[0].reason,
            QuarantineReason::MalformedItem { .. }
        ));
        assert_eq!(out.quarantined[0].raw_id, "CVE-BROKEN");
        assert_eq!(out.quarantined[0].feed, "2020-02-02");
        assert!(out.quarantined[1..]
            .iter()
            .all(|r| r.reason == QuarantineReason::ConflictingDuplicate));
        assert_eq!(state.quarantine().len(), 3);
        // Neither conflicting copy was admitted: the id's accumulated
        // version (if the base delivered one) is untouched.
        assert_eq!(state.database().get(&conflict_id), conflict_before.as_ref());

        // The quarantine folds into the unified quality ledger: the broken
        // raw id lands unkeyed, the conflicting copies key to their CVE.
        use crate::quality::IssueKind;
        let ledger = &out.outcome.ledger;
        assert!(ledger
            .unkeyed()
            .iter()
            .any(|(raw, issue)| raw == "CVE-BROKEN" && issue.kind == IssueKind::Quarantined));
        if state.database().get(&conflict_id).is_some() {
            assert!(ledger
                .issues_for(&conflict_id)
                .iter()
                .any(|i| i.kind == IssueKind::Quarantined));
        }
    }
}
