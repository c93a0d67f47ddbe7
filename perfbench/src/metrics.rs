//! The metric names the benchmark emits, with their units, in emission
//! order. `BENCHMARK.json` declares the same two lists; a test keeps them
//! equal.

use crate::queries::KINDS;

/// Spans the stage replay records, one per layer call; each reports as
/// `<span>_ms`.
pub const STAGE_SPANS: [&str; 12] = [
    "feed.parse",
    "feed.convert",
    "disclosure.estimate",
    "names.vendor_sweep",
    "names.verify",
    "names.product_sweep",
    "names.apply",
    "cwe_fix.rectify",
    "severity.backport",
    "quality.assemble",
    "serve.build",
    "serve.attach_quality",
];

/// Spans around one §4.3 model trained and applied alone, in
/// `ModelKind::ALL` order.
pub const MODEL_SPANS: [&str; 4] = [
    "severity.lr",
    "severity.svr",
    "severity.cnn",
    "severity.dnn",
];

/// Metrics of untraced runs: what a user of the system sees.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("throughput_per_s", "1/s"),
        ("latency_p50_ms", "ms"),
        ("peak_rss_mb", "MB"),
    ]
    .into_iter()
    .map(|(name, unit)| (name.to_owned(), unit))
    .collect()
}

/// Metrics of traced runs: one layer each.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_owned(), unit));
    add("severity.backport_ms", "ms");
    add("severity.backport_share", "ratio");
    add("severity.ground_truth", "count");
    add("severity.v2_only", "count");
    for span in MODEL_SPANS {
        add(&format!("{span}_ms"), "ms");
    }
    add("feed.parse_ms", "ms");
    add("feed.convert_ms", "ms");
    add("disclosure.estimate_ms", "ms");
    add("disclosure.dated_share", "ratio");
    add("names.vendor_sweep_ms", "ms");
    add("names.verify_ms", "ms");
    add("names.product_sweep_ms", "ms");
    add("names.apply_ms", "ms");
    add("names.vendor_candidates", "count");
    add("names.vendor_confirm_ratio", "ratio");
    add("names.product_candidates", "count");
    add("cwe_fix.rectify_ms", "ms");
    add("cwe_fix.corrected", "count");
    add("quality.assemble_ms", "ms");
    add("quality.issues", "count");
    add("ingest.apply_ms", "ms");
    add("ingest.admitted", "count");
    add("ingest.quarantined", "count");
    add("ingest.rejected_feeds", "count");
    add("ingest.feed_to_served_p50_ms", "ms");
    add("serve.build_ms", "ms");
    add("serve.attach_quality_ms", "ms");
    for kind in KINDS {
        add(&format!("serve.{kind}.count"), "count");
        add(&format!("serve.{kind}.p50_us"), "us");
        add(&format!("serve.{kind}.p99_us"), "us");
    }
    add("serve.items_per_query", "items");
    add("serve.query_p99_us", "us");
    add("trace.overhead_share", "ratio");
    add("trace.unaccounted_share", "ratio");
    out
}
