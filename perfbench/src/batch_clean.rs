//! `batch_clean`: the cold one-shot path. The corpus is one NVD JSON
//! feed; a pass parses and converts it, cleans it with the backport on,
//! and serves it with its quality ledger attached. The §4.3 backport is
//! most of a pass, so model work shows here, and so would a cold-start
//! regression of the clean; serving does almost no work.

use std::time::{Duration, Instant};

use minipar::derive_seed;
use nvd_clean::OracleVerifier;
use nvd_serve::{LinearScan, ServeIndex};
use nvd_synth::{generate, SynthConfig};

use crate::metrics::STAGE_SPANS;
use crate::pipeline;
use crate::queries::{check_against_scan, query_stream, KindSamples};
use crate::report::Report;
use crate::stats::{median_ms, ms};
use crate::trace::Tracer;
use crate::{RunConfig, Size};

/// Seed-stream tag for the parity sample's queries.
const SAMPLE_STREAM: u64 = 0x6261_7463_6873_6d70;

pub fn run(size: &Size, cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    if cfg.trace {
        report.tracer = Tracer::on();
    }

    // Set-up: generate the corpus and serialize it as one feed, several
    // times so `setup_s` is a median.
    let mut setups: Vec<Duration> = Vec::new();
    let mut input = None;
    for _ in 0..size.setups.max(1) {
        // Free the previous set-up first, so peak memory holds one.
        drop(input.take());
        let start = Instant::now();
        let corpus = generate(&SynthConfig::with_scale(size.scale, cfg.seed));
        let json = pipeline::feed_json(&corpus.database, "batch");
        setups.push(start.elapsed());
        input = Some((corpus, json));
    }
    let (corpus, json) = input.expect("at least one set-up ran");
    let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
    let archive = &corpus.archive;
    let cves = corpus.database.len() as f64;

    // Timed passes; a traced run alternates untraced and traced passes.
    let mut untraced: Vec<Duration> = Vec::new();
    let mut traced: Vec<Duration> = Vec::new();
    let mut reference = None;
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let (elapsed, outcome, counters) =
            pipeline::pass(&mut Tracer::off(), &json, archive, &oracle);
        untraced.push(elapsed);
        let (first, _) = reference.get_or_insert((counters.clone(), outcome));
        report.checks.check(1, counters == *first, || {
            "counter block changed between passes".to_owned()
        });
        if cfg.trace {
            let (elapsed, replayed, counters) =
                pipeline::pass(&mut report.tracer, &json, archive, &oracle);
            traced.push(elapsed);
            let (first, first_outcome) = reference.as_ref().expect("set above");
            let same = counters == *first && pipeline::same_outcome(&replayed, first_outcome);
            report.checks.check(1, same, || {
                "stage replay diverged from Cleaner::clean".to_owned()
            });
        }
    }
    let (pass_counters, outcome) = reference.expect("one pass ran");
    let mut counters = pass_counters.clone();

    // Parity of the served index with the linear scan on a fixed sample.
    let index = ServeIndex::build(&outcome.database).with_quality(&outcome.ledger);
    let scan = LinearScan::with_ledger(&outcome.database, &outcome.ledger);
    let sample = query_stream(
        &outcome.database,
        size.sample,
        derive_seed(cfg.seed, SAMPLE_STREAM),
    );
    let mut kinds = KindSamples::default();
    let (checksum, items) =
        check_against_scan(&mut report.checks, &index, &scan, &sample, &mut kinds);
    counters.put("sample.checksum", checksum);
    counters.put("sample.items", items);
    drop(index);

    let pass_ms = median_ms(&untraced);
    report.set("setup_s", median_ms(&setups) / 1e3);
    report.set("throughput_per_s", cves / (pass_ms / 1e3));
    report.set("latency_p50_ms", pass_ms);
    report.notes.push(format!(
        "cves={cves} passes untraced={} traced={}",
        untraced.len(),
        traced.len()
    ));
    report.notes.push(format!(
        "pass_ms {:.1?}",
        untraced.iter().map(|&d| ms(d)).collect::<Vec<_>>()
    ));

    if cfg.trace {
        let traced_ms = median_ms(&traced);
        pipeline::report_spans(&mut report, "replay", &STAGE_SPANS);
        let backport_ms = report.value("severity.backport_ms");
        report.set("severity.backport_share", backport_ms / traced_ms);
        pipeline::report_outcome(&mut report, &outcome);
        pipeline::report_models(&mut report, &outcome.database);
        // The whole corpus is one feed here.
        report.set("ingest.feed_to_served_p50_ms", pass_ms);
        let cold = pipeline::report_cold_ingest(&mut report, &json, archive, &oracle);
        report
            .checks
            .check(1, pipeline::same_outcome(&cold.outcome, &outcome), || {
                "cold CleanState ingest diverged from Cleaner::clean".to_owned()
            });
        kinds.report(&mut report);
        pipeline::report_trace_cost(&mut report, pass_ms, traced_ms, "replay");

        // The counter block at pool width 1 must equal the default width's.
        let (_, _, serial) = minipar::with_jobs(1, || {
            pipeline::pass(&mut Tracer::off(), &json, archive, &oracle)
        });
        report.checks.check(1, serial == pass_counters, || {
            "counter block differs at NVD_JOBS=1".to_owned()
        });
    }
    report.counters = counters;
    report
}
