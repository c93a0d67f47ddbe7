//! The end-to-end cleaning pipeline.
//!
//! Runs the paper's four rectifications in order — disclosure dates (§4.1),
//! vendor/product names (§4.2), severity backport (§4.3), CWE mining
//! (§4.4) — producing a [`CleanOutcome`]: the rectified [`Database`], a
//! [`CleanReport`] with everything the case studies (§5) need, and the
//! per-CVE [`QualityLedger`] each stage emits its typed findings into.

use std::collections::BTreeMap;

use nvd_model::prelude::{CveId, Database, Severity};
use webarchive::{CrawlerSet, WebArchive};

use crate::cwe_fix::CweFixOutcome;
use crate::disclosure::{AggregationRule, DisclosureEstimate};
use crate::incremental::CleanState;
use crate::names::{ApplyStats, NameMapping, PatternBreakdown, Verifier};
use crate::quality::QualityLedger;
use crate::severity::{BackportOptions, BackportOutcome};

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
/// emitted. Returned by [`CleanState::apply_delta`] and so by
/// [`Cleaner::clean`].
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
    /// The rectified (predicted-or-labelled) v3 severity of a CVE.
    pub fn effective_v3_severity(&self, db: &Database, id: &CveId) -> Option<Severity> {
        self.severity
            .as_ref()
            .and_then(|s| s.effective_severity(db, id))
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
    /// A batch clean is one delta: the whole corpus applied to a fresh
    /// [`CleanState`], so batch and incremental cleaning share one stage
    /// sequence.
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
        CleanState::new(self.options.clone()).apply_delta(db.as_slice(), archive, verifier)
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
        use crate::incremental::QuarantineLedger;
        use crate::quality::{IssueKind, QualityLedger};
        use crate::reference::reference_clean;
        let corpus = generate(&SynthConfig::with_scale(0.01, 41));
        let cleaner = Cleaner::default();
        let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
        let out = cleaner.clean(&corpus.database, &corpus.archive, &oracle);

        // Re-assembling from the report reproduces the ledger exactly, and
        // the uncached stage-by-stage reference returns an identical
        // database, report and ledger.
        let reassembled =
            QualityLedger::assemble(&out.database, &out.report, &QuarantineLedger::default());
        assert_eq!(out.ledger, reassembled);
        let reference = reference_clean(
            &corpus.database,
            &corpus.archive,
            &oracle,
            &CleanOptions::default(),
        );
        assert_eq!(out.database.as_slice(), reference.database.as_slice());
        assert_eq!(
            format!("{:?}", out.report),
            format!("{:?}", reference.report)
        );
        assert_eq!(out.ledger, reference.ledger);

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
