//! The end-to-end cleaning pipeline.
//!
//! Runs the paper's four rectifications in order — disclosure dates (§4.1),
//! vendor/product names (§4.2), severity backport (§4.3), CWE mining
//! (§4.4) — producing a [`CleanOutcome`]: the rectified [`Database`], a
//! [`CleanReport`] with everything the case studies (§5) need, and the
//! per-CVE [`QualityLedger`] each stage emits its typed findings into.

use std::collections::BTreeMap;

use nvd_model::cwe::CweCatalog;
use nvd_model::prelude::{CveId, Database, Date, Severity};
use webarchive::{CrawlerSet, WebArchive};

use crate::cwe_fix::{rectify_cwe, CweFixOutcome};
use crate::disclosure::{AggregationRule, DisclosureEstimate, DisclosureEstimator};
use crate::incremental::QuarantineLedger;
use crate::names::{
    find_product_candidates, find_vendor_candidates, ApplyStats, NameMapping, PatternBreakdown,
    ProductCandidate, ProductHeuristic, Verifier,
};
use crate::quality::{emit_issues, QualityLedger, QualitySink};
use crate::severity::{backport_v3, can_backport, BackportOptions, BackportOutcome};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct CleanOptions {
    /// Crawler coverage for disclosure estimation.
    pub crawlers: CrawlerSet,
    /// Date aggregation rule (paper: minimum).
    pub aggregation: AggregationRule,
    /// Severity backport options.
    pub backport: BackportOptions,
    /// Whether to run the (expensive) severity backport.
    pub run_backport: bool,
}

impl Default for CleanOptions {
    fn default() -> Self {
        Self {
            crawlers: CrawlerSet::builtin(),
            aggregation: AggregationRule::Minimum,
            backport: BackportOptions::default(),
            run_backport: true,
        }
    }
}

/// Name-cleaning summary (the §4.2 numbers).
#[derive(Debug, Clone, Default)]
pub struct NameReport {
    /// Distinct vendor names before cleaning.
    pub vendors_before: usize,
    /// Distinct vendor names after cleaning.
    pub vendors_after: usize,
    /// Distinct product names before cleaning.
    pub products_before: usize,
    /// Distinct product names after cleaning.
    pub products_after: usize,
    /// Candidate vendor pairs flagged by the heuristics.
    pub vendor_candidates: usize,
    /// Vendor pairs confirmed by verification.
    pub vendor_confirmed: usize,
    /// Product pairs flagged / confirmed.
    pub product_candidates: usize,
    /// Product pairs confirmed by verification.
    pub product_confirmed: usize,
    /// Table 2 tabulation over the vendor candidates.
    pub pattern_breakdown: PatternBreakdown,
    /// The consolidation mapping (reusable on side databases).
    pub mapping: NameMapping,
    /// Application statistics.
    pub apply_stats: ApplyStats,
}

impl NameReport {
    /// Vendor names impacted by a discrepancy (Table 3 `#imp`): aliases
    /// plus the consistent names they map onto.
    pub fn vendor_names_impacted(&self) -> usize {
        self.mapping.vendor.len() + self.mapping.consistent_vendor_targets()
    }
}

/// Everything the pipeline learned.
#[derive(Debug, Clone)]
pub struct CleanReport {
    /// Per-CVE disclosure estimates (§4.1).
    pub disclosure: BTreeMap<CveId, DisclosureEstimate>,
    /// Name-cleaning summary (§4.2).
    pub names: NameReport,
    /// Severity backport outcome (§4.3); `None` when skipped.
    pub severity: Option<BackportOutcome>,
    /// CWE rectification outcome (§4.4).
    pub cwe: CweFixOutcome,
}

/// Everything one cleaning pass produced: the rectified database, the
/// report over it, and the per-CVE quality ledger the stage-detectors
/// emitted. Returned by both [`Cleaner::clean`] and
/// [`crate::incremental::CleanState::apply_delta`], replacing the loose
/// `(Database, CleanReport)` tuples the two paths used to drift between.
#[derive(Debug, Clone)]
pub struct CleanOutcome {
    /// The rectified database.
    pub database: Database,
    /// The clean report (§4.1–§4.4 numbers).
    pub report: CleanReport,
    /// The typed per-CVE issue ledger — bit-identical at any `NVD_JOBS`
    /// and across the batch and incremental paths.
    pub ledger: QualityLedger,
}

impl CleanReport {
    /// Estimated disclosure date of a CVE, if the pipeline produced one.
    pub fn estimated_disclosure(&self, id: &CveId) -> Option<Date> {
        self.disclosure.get(id).map(|e| e.estimated)
    }

    /// The rectified (predicted-or-labelled) v3 severity of a CVE.
    pub fn effective_v3_severity(&self, db: &Database, id: &CveId) -> Option<Severity> {
        self.severity
            .as_ref()
            .and_then(|s| s.effective_severity(db, id))
    }
}

/// The product-pair acceptance rule shared by the batch pipeline and the
/// incremental [`crate::incremental::CleanState`]: token and abbreviation
/// pairs are reliable; edit-distance pairs need the verifier's scrutiny,
/// which our stand-ins only provide for vendors — so accept
/// token/abbreviation unconditionally and edit-distance pairs only when
/// short names make typos plausible.
pub(crate) fn confirm_product(c: &ProductCandidate) -> bool {
    match c.heuristic {
        ProductHeuristic::TokenEquivalent | ProductHeuristic::Abbreviation => true,
        ProductHeuristic::EditDistance => c.a.as_str().len() >= 5 && c.b.as_str().len() >= 5,
    }
}

/// The pipeline itself.
#[derive(Debug, Clone, Default)]
pub struct Cleaner {
    options: CleanOptions,
}

impl Cleaner {
    /// A cleaner with the paper's default setup.
    pub fn new(options: CleanOptions) -> Self {
        Self { options }
    }

    /// Runs all four rectifications, returning the cleaned database, the
    /// report, and the assembled quality ledger. The input database is not
    /// modified.
    ///
    /// `verifier` stands in for the paper's manual pair vetting; it must be
    /// `Sync` because the per-CVE stages (disclosure estimation, the §4.2
    /// candidate sweeps and their verification, severity feature
    /// extraction) fan out over the `minipar` pool. Output — the ledger
    /// included — is bit-identical at any `NVD_JOBS` setting.
    pub fn clean<V: Verifier + Sync>(
        &self,
        db: &Database,
        archive: &WebArchive,
        verifier: &V,
    ) -> CleanOutcome {
        let mut ledger = QualityLedger::default();
        let (database, report) = self.clean_into(db, archive, verifier, &mut ledger);
        CleanOutcome {
            database,
            report,
            ledger,
        }
    }

    /// [`Cleaner::clean`] with a pluggable issue sink: the pipeline runs
    /// identically, then the stage-detectors emit into `sink` — or skip
    /// all assessment work when the sink is disabled
    /// ([`crate::quality::NullSink`], the silent path the overhead bench
    /// baselines against).
    pub fn clean_into<V: Verifier + Sync, S: QualitySink>(
        &self,
        db: &Database,
        archive: &WebArchive,
        verifier: &V,
        sink: &mut S,
    ) -> (Database, CleanReport) {
        let mut cleaned = db.clone();

        // §4.1 — disclosure dates (on the original references).
        let estimator = DisclosureEstimator::new(archive)
            .with_crawlers(self.options.crawlers.clone())
            .with_rule(self.options.aggregation);
        let disclosure = estimator.estimate_all(&cleaned);

        // §4.2 — vendor names on the blocked matching engine (interned ids,
        // block proposal and signal annotation fan out over minipar). Pair
        // verification is the stand-in for the paper's manual review of
        // every flagged pair: per-pair work with no cross-pair state, so it
        // maps in candidate order.
        let vendor_candidates = find_vendor_candidates(&cleaned);
        let confirmed_flags: Vec<bool> =
            minipar::par_map(&vendor_candidates, |c| verifier.confirm(c));
        let confirmed: Vec<_> = vendor_candidates
            .iter()
            .zip(&confirmed_flags)
            .filter(|(_, &ok)| ok)
            .map(|(c, _)| c.clone())
            .collect();
        let pattern_breakdown = PatternBreakdown::tabulate(&vendor_candidates, &confirmed_flags);
        let mut mapping = NameMapping::build_vendor(&confirmed, &cleaned);

        // §4.2 — product names (under consolidated vendors, one parallel
        // block per vendor), accepted under the shared `confirm_product`
        // rule.
        let product_candidates = find_product_candidates(&cleaned, &mapping);
        let product_confirmed: Vec<_> = product_candidates
            .iter()
            .filter(|c| confirm_product(c))
            .cloned()
            .collect();
        mapping.extend_products(&product_confirmed, &cleaned);

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

        // §4.4 — CWE mining (before severity so target encoding can use
        // recovered types).
        let cwe = rectify_cwe(&mut cleaned, &CweCatalog::builtin());

        // §4.3 — severity backport (skipped while the corpus holds too
        // little ground truth to train on).
        let severity = if self.options.run_backport && can_backport(&cleaned) {
            Some(backport_v3(&cleaned, &self.options.backport))
        } else {
            None
        };

        let report = CleanReport {
            disclosure,
            names,
            severity,
            cwe,
        };
        // Quality assessment: every stage re-read as a detector, emitting
        // typed issues serially (batch cleaning has no quarantine path).
        emit_issues(&cleaned, &report, &QuarantineLedger::default(), sink);
        (cleaned, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::OracleVerifier;
    use nvd_synth::{generate, SynthConfig};

    fn cleaned() -> (nvd_synth::SynthCorpus, Database, CleanReport) {
        let corpus = generate(&SynthConfig::with_scale(0.02, 41));
        let cleaner = Cleaner::default();
        let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
        let out = cleaner.clean(&corpus.database, &corpus.archive, &oracle);
        (corpus, out.database, out.report)
    }

    #[test]
    fn pipeline_reduces_vendor_universe() {
        let (_, _, report) = cleaned();
        assert!(
            report.names.vendors_after < report.names.vendors_before,
            "vendors {} → {}",
            report.names.vendors_before,
            report.names.vendors_after
        );
    }

    #[test]
    fn disclosure_estimates_improve_on_publication() {
        let (corpus, db, report) = cleaned();
        let mut improved = 0usize;
        let mut exact = 0usize;
        let mut considered = 0usize;
        for e in db.iter() {
            let est = report.disclosure[&e.id];
            if est.estimated < e.published {
                improved += 1;
            }
            if est.extracted > 0 {
                considered += 1;
                if est.estimated == corpus.truth.disclosure[&e.id] {
                    exact += 1;
                }
            }
        }
        assert!(improved > db.len() / 4, "improved {improved}/{}", db.len());
        // When the first (earliest) reference survives, the estimate is
        // exact; dead hosts make the rest upper bounds.
        assert!(
            exact as f64 / considered as f64 > 0.5,
            "exact {exact}/{considered}"
        );
    }

    #[test]
    fn oracle_cleaning_recovers_most_injected_vendor_aliases() {
        let (corpus, db, _) = cleaned();
        let alias_map = corpus.truth.vendor_alias_map();
        let remaining: Vec<_> = db
            .vendor_set()
            .into_iter()
            .filter(|v| alias_map.contains_key(*v))
            .collect();
        let recovered = alias_map.len() - remaining.len();
        // Aliases that never got sampled into a CVE cannot be found; among
        // those present, most should be consolidated.
        assert!(
            recovered * 3 >= alias_map.len(),
            "recovered {recovered} of {}",
            alias_map.len()
        );
    }

    #[test]
    fn severity_backport_covers_v2_only_population() {
        let (_, db, report) = cleaned();
        let sev = report.severity.as_ref().unwrap();
        let v2_only = db
            .iter()
            .filter(|e| e.cvss_v2.is_some() && !e.has_v3())
            .count();
        assert_eq!(sev.predictions.len(), v2_only);
    }

    #[test]
    fn cwe_fixes_recover_recoverable_entries() {
        let (_, _, report) = cleaned();
        assert!(
            report.cwe.stats.total_corrected() > 0,
            "some CWE fixes expected"
        );
        assert!(report.cwe.stats.fixed_other >= report.cwe.stats.fixed_missing);
    }

    #[test]
    fn ledger_matches_the_report_and_the_silent_path() {
        use crate::quality::{IssueKind, NullSink, QualityLedger};
        let corpus = generate(&SynthConfig::with_scale(0.01, 41));
        let cleaner = Cleaner::default();
        let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
        let out = cleaner.clean(&corpus.database, &corpus.archive, &oracle);

        // Re-assembling from the report reproduces the ledger exactly, and
        // the NullSink path returns an identical database + report.
        let reassembled = QualityLedger::assemble(
            &out.database,
            &out.report,
            &crate::incremental::QuarantineLedger::default(),
        );
        assert_eq!(out.ledger, reassembled);
        let mut sink = NullSink;
        let (silent_db, silent_report) =
            cleaner.clean_into(&corpus.database, &corpus.archive, &oracle, &mut sink);
        assert_eq!(out.database.as_slice(), silent_db.as_slice());
        assert_eq!(format!("{:?}", out.report), format!("{silent_report:?}"));

        // Every auto-fix the report records shows up as ledger issues.
        let quality = out.ledger.corpus_quality(&out.database);
        let vendor_fixes = out.report.names.apply_stats.cves_with_vendor_fixes.len();
        assert_eq!(
            quality.by_kind.get(&IssueKind::VendorAlias).copied(),
            (vendor_fixes > 0).then_some(vendor_fixes)
        );
        assert!(quality.auto_fixed > 0);
        assert!(quality.needs_review > 0);
        assert!(quality.mean(crate::quality::ScoreAxis::Overall) < 100.0);
    }

    #[test]
    fn original_database_is_untouched() {
        let corpus = generate(&SynthConfig::with_scale(0.005, 2));
        let before: Vec<_> = corpus.database.iter().cloned().collect();
        let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
        let cleaner = Cleaner::new(CleanOptions {
            run_backport: false,
            ..CleanOptions::default()
        });
        let _ = cleaner.clean(&corpus.database, &corpus.archive, &oracle);
        let after: Vec<_> = corpus.database.iter().cloned().collect();
        assert_eq!(before, after);
    }
}
