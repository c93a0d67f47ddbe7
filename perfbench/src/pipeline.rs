//! The cleaning path users run, through the public API: one NVD JSON feed
//! → §4.1–§4.4 clean with the §4.3 backport on → quality ledger → serve
//! index with the ledger attached.
//!
//! Untraced, the clean is the single `Cleaner::clean` call. Traced, the
//! same stage sequence is replayed through each stage's public function
//! with a span around every call, so the trace names the layer a saving
//! came from; the workloads check that the replay reproduces
//! `Cleaner::clean` bit for bit.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nvd_clean::names::{
    find_product_candidates, find_vendor_candidates, NameMapping, OracleVerifier, PatternBreakdown,
    ProductCandidate, ProductHeuristic, Verifier,
};
use nvd_clean::severity::{backport_v3, BackportOptions, ModelKind};
use nvd_clean::{
    rectify_cwe, CleanOptions, CleanOutcome, CleanReport, CleanState, Cleaner, DisclosureEstimator,
    IngestOutcome, NameReport, QualityLedger, QuarantineLedger,
};
use nvd_model::cwe::CweCatalog;
use nvd_model::feed::{from_feed, parse_feed_json, to_feed};
use nvd_model::prelude::Database;
use nvd_serve::ServeIndex;
use webarchive::WebArchive;

use crate::metrics::MODEL_SPANS;
use crate::report::{debug_hash, Counters, Report};
use crate::stats::{median, ratio};
use crate::trace::Tracer;

/// Serializes a database as one NVD JSON feed (benchmark set-up).
pub fn feed_json(db: &Database, timestamp: &str) -> String {
    serde_json::to_string(&to_feed(db, timestamp)).expect("feed documents serialize")
}

/// The untraced clean: parse, convert, `Cleaner::clean`.
pub fn clean_feed(json: &str, archive: &WebArchive, oracle: &OracleVerifier) -> CleanOutcome {
    let doc = parse_feed_json(json).expect("benchmark feeds parse");
    let db = from_feed(&doc).expect("benchmark feeds convert");
    Cleaner::default().clean(&db, archive, oracle)
}

/// Bench-local copy of the pipeline's product-pair acceptance rule
/// (`nvd_clean::cleaner::confirm_product` is crate-private): token and
/// abbreviation pairs always, edit-distance pairs only between names of
/// at least five characters.
fn confirm_product(c: &ProductCandidate) -> bool {
    match c.heuristic {
        ProductHeuristic::TokenEquivalent | ProductHeuristic::Abbreviation => true,
        ProductHeuristic::EditDistance => c.a.as_str().len() >= 5 && c.b.as_str().len() >= 5,
    }
}

/// The traced clean: `Cleaner::clean_into`'s stage sequence replayed
/// through the public stage functions, one span per call.
pub fn clean_feed_traced(
    tracer: &mut Tracer,
    json: &str,
    archive: &WebArchive,
    oracle: &OracleVerifier,
) -> CleanOutcome {
    let options = CleanOptions::default();
    let doc = tracer.time("feed.parse", || {
        parse_feed_json(json).expect("benchmark feeds parse")
    });
    let mut cleaned = tracer.time("feed.convert", || {
        from_feed(&doc).expect("benchmark feeds convert")
    });

    let disclosure = tracer.time("disclosure.estimate", || {
        DisclosureEstimator::new(archive)
            .with_crawlers(options.crawlers.clone())
            .with_rule(options.aggregation)
            .estimate_all(&cleaned)
    });
    let vendor_candidates = tracer.time("names.vendor_sweep", || find_vendor_candidates(&cleaned));
    let (confirmed, pattern_breakdown, mut mapping) = tracer.time("names.verify", || {
        let flags: Vec<bool> = minipar::par_map(&vendor_candidates, |c| oracle.confirm(c));
        let confirmed: Vec<_> = vendor_candidates
            .iter()
            .zip(&flags)
            .filter(|(_, &ok)| ok)
            .map(|(c, _)| c.clone())
            .collect();
        let breakdown = PatternBreakdown::tabulate(&vendor_candidates, &flags);
        let mapping = NameMapping::build_vendor(&confirmed, &cleaned);
        (confirmed, breakdown, mapping)
    });
    let (product_candidates, product_confirmed) = tracer.time("names.product_sweep", || {
        let candidates = find_product_candidates(&cleaned, &mapping);
        let confirmed: Vec<ProductCandidate> = candidates
            .iter()
            .filter(|c| confirm_product(c))
            .cloned()
            .collect();
        (candidates, confirmed)
    });
    let names = tracer.time("names.apply", || {
        mapping.extend_products(&product_confirmed, &cleaned);
        let vendors_before = cleaned.vendor_set().len();
        let products_before = cleaned.product_set().len();
        let apply_stats = mapping.apply(&mut cleaned);
        NameReport {
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
        }
    });

    let cwe = tracer.time("cwe_fix.rectify", || {
        rectify_cwe(&mut cleaned, &CweCatalog::builtin())
    });
    let severity = tracer.time("severity.backport", || {
        options
            .run_backport
            .then(|| backport_v3(&cleaned, &options.backport))
    });

    let report = CleanReport {
        disclosure,
        names,
        severity,
        cwe,
    };
    let ledger = tracer.time("quality.assemble", || {
        QualityLedger::assemble(&cleaned, &report, &QuarantineLedger::default())
    });
    CleanOutcome {
        database: cleaned,
        report,
        ledger,
    }
}

/// Builds the serve index over a cleaned outcome and attaches its ledger.
pub fn serve<'a>(tracer: &mut Tracer, outcome: &'a CleanOutcome) -> ServeIndex<'a> {
    let index = tracer.time("serve.build", || ServeIndex::build(&outcome.database));
    tracer.time("serve.attach_quality", || {
        index.with_quality(&outcome.ledger)
    })
}

/// One pass of the path from a JSON feed to a served index with quality
/// attached, under a `replay` span. With the tracer on, the clean is the
/// stage replay. Returns the pass time, the outcome and its counter block.
pub fn pass(
    tracer: &mut Tracer,
    json: &str,
    archive: &WebArchive,
    oracle: &OracleVerifier,
) -> (Duration, CleanOutcome, Counters) {
    let root = tracer.enter("replay");
    let start = Instant::now();
    let outcome = if tracer.enabled() {
        clean_feed_traced(tracer, json, archive, oracle)
    } else {
        clean_feed(json, archive, oracle)
    };
    let index = serve(tracer, &outcome);
    let elapsed = start.elapsed();
    tracer.exit(root);
    let counters = outcome_counters(&outcome, index.digest());
    drop(index);
    (elapsed, outcome, counters)
}

/// Whether two outcomes are bit-identical: database entries, report
/// (`Debug`, floats included) and quality ledger.
pub fn same_outcome(a: &CleanOutcome, b: &CleanOutcome) -> bool {
    a.database.as_slice() == b.database.as_slice()
        && debug_hash(&a.report) == debug_hash(&b.report)
        && a.ledger == b.ledger
}

/// The counter block of one cleaned, served outcome.
pub fn outcome_counters(outcome: &CleanOutcome, index_digest: u64) -> Counters {
    let mut c = Counters::default();
    let names = &outcome.report.names;
    c.put("entries", outcome.database.len() as u64);
    c.put("vendor_candidates", names.vendor_candidates as u64);
    c.put("vendor_confirmed", names.vendor_confirmed as u64);
    c.put("product_candidates", names.product_candidates as u64);
    c.put("product_confirmed", names.product_confirmed as u64);
    c.put(
        "cwe_corrected",
        outcome.report.cwe.stats.total_corrected() as u64,
    );
    if let Some(sev) = &outcome.report.severity {
        c.put("ground_truth", sev.ground_truth_size as u64);
        c.put("predictions", sev.predictions.len() as u64);
        let chosen = ModelKind::ALL.iter().position(|&k| k == sev.chosen);
        c.put("chosen_model", chosen.map_or(u64::MAX, |i| i as u64));
        c.put("predictions_hash", debug_hash(&sev.predictions));
    }
    c.put("quality_issues", outcome.ledger.total_issues() as u64);
    c.put(
        "entries_with_issues",
        outcome.ledger.entries_with_issues() as u64,
    );
    c.put("report_hash", debug_hash(&outcome.report));
    c.put("database_hash", debug_hash(outcome.database.as_slice()));
    c.put("index_digest", index_digest);
    c
}

/// Reports `<span>_ms` for each of `spans`: the median, over the spans
/// named `root`, of the time spent under it in spans of that name.
pub fn report_spans(report: &mut Report, root: &str, spans: &[&str]) {
    for span in spans {
        let ms = median(&report.tracer.per_root(root, span));
        report.set(format!("{span}_ms"), ms);
    }
}

/// Reports the per-layer counts of one cleaned outcome.
pub fn report_outcome(report: &mut Report, outcome: &CleanOutcome) {
    let r = &outcome.report;
    let dated = r.disclosure.values().filter(|e| e.extracted > 0).count();
    report.set(
        "disclosure.dated_share",
        ratio(dated as f64, r.disclosure.len() as f64),
    );
    let names = &r.names;
    report.set("names.vendor_candidates", names.vendor_candidates as f64);
    report.set(
        "names.vendor_confirm_ratio",
        ratio(
            names.vendor_confirmed as f64,
            names.vendor_candidates as f64,
        ),
    );
    report.set("names.product_candidates", names.product_candidates as f64);
    report.set("cwe_fix.corrected", r.cwe.stats.total_corrected() as f64);
    report.set("quality.issues", outcome.ledger.total_issues() as f64);
    let (ground, v2_only) = r
        .severity
        .as_ref()
        .map_or((0, 0), |s| (s.ground_truth_size, s.predictions.len()));
    report.set("severity.ground_truth", ground as f64);
    report.set("severity.v2_only", v2_only as f64);
}

/// Trains and applies each §4.3 model alone (`kinds: &[k]`,
/// `force_model: Some(k)`) over `db`, reporting `severity.<model>_ms`.
pub fn report_models(report: &mut Report, db: &Database) {
    static KINDS: [ModelKind; 4] = ModelKind::ALL;
    for (kind, span) in KINDS.iter().zip(MODEL_SPANS) {
        let options = BackportOptions {
            kinds: std::slice::from_ref(kind),
            force_model: Some(*kind),
            ..BackportOptions::default()
        };
        let (outcome, ms) = report.tracer.timed(span, || backport_v3(db, &options));
        black_box(outcome);
        report.set(format!("{span}_ms"), ms);
    }
}

/// Ingests a whole feed into a fresh `CleanState` — the incremental
/// path's cold start — and reports `ingest.*`. Returns the outcome.
pub fn report_cold_ingest(
    report: &mut Report,
    json: &str,
    archive: &WebArchive,
    oracle: &OracleVerifier,
) -> IngestOutcome {
    let mut state = CleanState::new(CleanOptions::default());
    let (ingested, ms) = report.tracer.timed("ingest.apply", || {
        state.ingest_json("cold", json, archive, oracle)
    });
    let ingested = ingested.expect("benchmark feeds parse");
    report.set("ingest.apply_ms", ms);
    report.set("ingest.admitted", ingested.admitted as f64);
    report.set("ingest.quarantined", ingested.quarantined.len() as f64);
    report.set("ingest.rejected_feeds", 0.0);
    ingested
}

/// Largest share of a traced pass its layer spans may leave uncovered.
const MAX_UNACCOUNTED: f64 = 0.05;

/// Reports the trace's own cost: traced minus untraced pass time as a
/// share of untraced, and the share of `root` spans no layer span covers.
/// A trace whose layer spans leave more than 5% of a pass uncovered fails.
pub fn report_trace_cost(report: &mut Report, untraced_ms: f64, traced_ms: f64, root: &str) {
    report.set(
        "trace.overhead_share",
        ratio(traced_ms - untraced_ms, untraced_ms),
    );
    let unaccounted = report.tracer.unaccounted(root);
    let worst = unaccounted.iter().copied().fold(0.0, f64::max);
    report.checks.check(1, worst <= MAX_UNACCOUNTED, || {
        format!("layer spans leave {worst:.3} of a {root} span unaccounted")
    });
    report.set("trace.unaccounted_share", median(&unaccounted));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::STAGE_SPANS;
    use nvd_synth::{generate, SynthConfig};

    #[test]
    fn stage_replay_reproduces_cleaner_at_tiny_scale() {
        let corpus = generate(&SynthConfig::with_scale(0.004, 11));
        let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
        let json = feed_json(&corpus.database, "t");
        let batch = Cleaner::default().clean(&corpus.database, &corpus.archive, &oracle);

        let mut tracer = Tracer::on();
        let (_, replayed, counters) = pass(&mut tracer, &json, &corpus.archive, &oracle);
        assert!(
            same_outcome(&replayed, &batch),
            "replay diverged from Cleaner::clean"
        );
        let (_, untraced, untraced_counters) =
            pass(&mut Tracer::off(), &json, &corpus.archive, &oracle);
        assert!(same_outcome(&untraced, &batch));
        assert_eq!(counters, untraced_counters);

        // Every stage ran under the one replay root, and the stage spans
        // account for nearly all of it.
        for span in STAGE_SPANS {
            let per_root = tracer.per_root("replay", span);
            assert_eq!(per_root.len(), 1);
            assert!(per_root[0] > 0.0, "{span} not recorded");
        }
        assert!(tracer.unaccounted("replay")[0] < 0.05);
    }
}
