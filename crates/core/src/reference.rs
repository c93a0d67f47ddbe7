//! Test-only reference pipeline: the §4.1–§4.4 stage sequence composed
//! straight from the public stage functions over the whole corpus. The
//! §4.2 sweeps are the same code [`crate::incremental`] runs, but every
//! call here starts from a fresh cache, so the reference shares no
//! carry-over state with a [`crate::incremental::CleanState`]: comparing
//! [`crate::cleaner::Cleaner::clean`] and
//! [`crate::incremental::CleanState::apply_delta`] against it checks what
//! the caches carry across deltas. The sweeps themselves are checked
//! against an independent oracle, the pre-blocking implementations in the
//! integration tests (`tests/tests/names_oracle`).

use nvd_model::cwe::CweCatalog;
use nvd_model::prelude::Database;
use webarchive::WebArchive;

use crate::cleaner::{CleanOptions, CleanOutcome, CleanReport, NameReport};
use crate::cwe_fix::rectify_cwe;
use crate::disclosure::DisclosureEstimator;
use crate::incremental::QuarantineLedger;
use crate::names::{
    confirm_product, find_product_candidates, find_vendor_candidates, NameMapping,
    PatternBreakdown, Verifier,
};
use crate::quality::QualityLedger;
use crate::severity::{backport_v3, can_backport};

/// Cleans `db` from scratch, stage by stage, with no carried caches.
pub(crate) fn reference_clean<V: Verifier>(
    db: &Database,
    archive: &WebArchive,
    verifier: &V,
    options: &CleanOptions,
) -> CleanOutcome {
    let mut cleaned = db.clone();

    // §4.1 — disclosure dates, on the original references.
    let disclosure = DisclosureEstimator::new(archive)
        .with_crawlers(options.crawlers.clone())
        .with_rule(options.aggregation)
        .estimate_all(&cleaned);

    // §4.2 — vendor pairs through the verifier, then product pairs under
    // the consolidated vendors through the acceptance rule.
    let vendor_candidates = find_vendor_candidates(&cleaned);
    let flags: Vec<bool> = vendor_candidates
        .iter()
        .map(|c| verifier.confirm(c))
        .collect();
    let confirmed: Vec<_> = vendor_candidates
        .iter()
        .zip(&flags)
        .filter(|(_, &ok)| ok)
        .map(|(c, _)| c.clone())
        .collect();
    let pattern_breakdown = PatternBreakdown::tabulate(&vendor_candidates, &flags);
    let mut mapping = NameMapping::build_vendor(&confirmed, &cleaned);
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

    // §4.4 — CWE mining, then §4.3 — the severity backport when enabled
    // and the corpus holds enough ground truth.
    let cwe = rectify_cwe(&mut cleaned, &CweCatalog::builtin());
    let severity = (options.run_backport && can_backport(&cleaned))
        .then(|| backport_v3(&cleaned, &options.backport));

    let report = CleanReport {
        disclosure,
        names,
        severity,
        cwe,
    };
    let ledger = QualityLedger::assemble(&cleaned, &report, &QuarantineLedger::default());
    CleanOutcome {
        database: cleaned,
        report,
        ledger,
    }
}
