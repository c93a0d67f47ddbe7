//! `serve_mixed`: the read path. Set-up batch-cleans the corpus (backport
//! on) and serves it with its ledger attached; the timed part is a closed
//! loop in which one client replays a seeded query stream, each query
//! sent when the previous answer returned. No cleaning stage runs while
//! the clock is on.

use std::time::{Duration, Instant};

use minipar::derive_seed;
use nvd_clean::OracleVerifier;
use nvd_serve::{run_workload, LinearScan, Query, QueryEngine, ServeIndex};
use nvd_synth::{generate, SynthConfig};

use crate::metrics::STAGE_SPANS;
use crate::pipeline;
use crate::queries::{check_against_scan, elapsed_ns, kind_of, query_stream, KindSamples, KINDS};
use crate::report::{fnv, Counters, Report, FNV_OFFSET};
use crate::stats::{median, median_ms, ms, select_rank};
use crate::trace::Tracer;
use crate::{RunConfig, Size};

/// Seed-stream tag for the query stream.
const STREAM: u64 = 0x7365_7276_6573_7472;

/// One replay of the stream: its wall time, checksum and item count.
struct Sweep {
    wall: Duration,
    checksum: u64,
    items: u64,
}

/// Replays the stream once, timing every query into `latencies` (and
/// into `kinds` on a traced sweep).
fn sweep(
    index: &ServeIndex<'_>,
    stream: &[Query],
    latencies: &mut Vec<u32>,
    mut kinds: Option<&mut KindSamples>,
) -> Sweep {
    latencies.clear();
    let (mut checksum, mut items) = (FNV_OFFSET, 0u64);
    let start = Instant::now();
    for query in stream {
        let sent = Instant::now();
        let answer = index.execute(query);
        let ns = elapsed_ns(sent);
        latencies.push(ns);
        checksum = fnv(checksum, &answer.checksum().to_le_bytes());
        items += answer.len() as u64;
        if let Some(kinds) = kinds.as_deref_mut() {
            kinds.record(kind_of(query), ns, answer.len());
        }
    }
    let wall = start.elapsed();
    if let Some(kinds) = kinds {
        kinds.end_sweep();
    }
    Sweep {
        wall,
        checksum,
        items,
    }
}

pub fn run(size: &Size, cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    if cfg.trace {
        report.tracer = Tracer::on();
    }

    // Set-up, several times so `setup_s` is a median; a traced run sets
    // up once, through the stage replay.
    let mut setups: Vec<Duration> = Vec::new();
    let mut input = None;
    let runs = if cfg.trace { 1 } else { size.setups.max(1) };
    for _ in 0..runs {
        drop(input.take());
        let start = Instant::now();
        let corpus = generate(&SynthConfig::with_scale(size.scale, cfg.seed));
        let oracle = OracleVerifier::new(corpus.truth.vendor_alias_map());
        let json = pipeline::feed_json(&corpus.database, "serve");
        let (_, outcome, counters) =
            pipeline::pass(&mut report.tracer, &json, &corpus.archive, &oracle);
        let stream = query_stream(
            &outcome.database,
            size.queries,
            derive_seed(cfg.seed, STREAM),
        );
        setups.push(start.elapsed());
        input = Some((corpus, oracle, json, outcome, counters, stream));
    }
    let (corpus, oracle, json, outcome, setup_counters, stream) =
        input.expect("at least one set-up ran");
    let index = ServeIndex::build(&outcome.database).with_quality(&outcome.ledger);
    report.checks.check(
        1,
        index.digest() == setup_counters.get("index_digest"),
        || "rebuilt index digest differs from the set-up's".to_owned(),
    );

    // The closed loop: whole replays of the stream until the time is up.
    let queries = stream.len() as f64;
    let mut latencies: Vec<u32> = Vec::with_capacity(stream.len());
    let mut kinds = KindSamples::default();
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut p50_ns: Vec<f64> = Vec::new();
    let mut first: Option<(u64, u64)> = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let s = sweep(&index, &stream, &mut latencies, None);
        walls.push(s.wall);
        p50_ns.push(select_rank(&mut latencies, 50.0).map_or(0.0, f64::from));
        let expected = *first.get_or_insert((s.checksum, s.items));
        report.checks.check(
            stream.len() as u64,
            (s.checksum, s.items) == expected,
            || "stream checksum changed between passes".to_owned(),
        );
        if cfg.trace {
            let s = sweep(&index, &stream, &mut latencies, Some(&mut kinds));
            traced_walls.push(s.wall);
            report.checks.check(
                stream.len() as u64,
                (s.checksum, s.items) == expected,
                || "traced pass checksum differs".to_owned(),
            );
        }
    }
    let (checksum, items) = first.expect("one pass ran");

    // Parity with the linear scan on an evenly spaced sample of the
    // stream; the sample's fold must also equal `run_workload`'s.
    let step = (stream.len() / size.sample.max(1)).max(1);
    let sample: Vec<Query> = stream
        .iter()
        .step_by(step)
        .take(size.sample)
        .cloned()
        .collect();
    let scan = LinearScan::with_ledger(&outcome.database, &outcome.ledger);
    let folded = check_against_scan(
        &mut report.checks,
        &index,
        &scan,
        &sample,
        &mut KindSamples::default(),
    );
    let canonical = run_workload(&index, &sample);
    report.checks.check(
        1,
        (canonical.checksum, canonical.items as u64) == folded,
        || "the stream checksum fold differs from run_workload's".to_owned(),
    );

    let mut counters = Counters::default();
    counters.nest("setup", &setup_counters);
    counters.put("stream.queries", stream.len() as u64);
    counters.put("stream.items", items);
    counters.put("stream.checksum", checksum);
    let mut per_kind = [0u64; KINDS.len()];
    for query in &stream {
        per_kind[kind_of(query)] += 1;
    }
    for (kind, count) in KINDS.iter().zip(per_kind) {
        counters.put(format!("stream.{kind}"), count);
    }

    let wall_ms = median_ms(&walls);
    report.set("setup_s", median_ms(&setups) / 1e3);
    report.set("throughput_per_s", queries / (wall_ms / 1e3));
    report.set("latency_p50_ms", median(&p50_ns) / 1e6);
    report.notes.push(format!(
        "cves={} queries={} samples={} passes untraced={} traced={}",
        outcome.database.len(),
        stream.len(),
        stream.len() * walls.len(),
        walls.len(),
        traced_walls.len()
    ));

    if cfg.trace {
        drop(index);
        pipeline::report_spans(&mut report, "replay", &STAGE_SPANS);
        let replay_ms = median(&report.tracer.durations("replay"));
        let backport_ms = report.value("severity.backport_ms");
        report.set("severity.backport_share", backport_ms / replay_ms);
        pipeline::report_outcome(&mut report, &outcome);
        pipeline::report_models(&mut report, &outcome.database);
        let cold = pipeline::report_cold_ingest(&mut report, &json, &corpus.archive, &oracle);
        report
            .checks
            .check(1, pipeline::same_outcome(&cold.outcome, &outcome), || {
                "cold CleanState ingest diverged from Cleaner::clean".to_owned()
            });
        kinds.report(&mut report);
        pipeline::report_trace_cost(&mut report, wall_ms, median_ms(&traced_walls), "replay");

        // The untraced clean, at the default pool width and at width 1,
        // must reproduce the traced set-up's counter block.
        let (elapsed, untraced, untraced_counters) =
            pipeline::pass(&mut Tracer::off(), &json, &corpus.archive, &oracle);
        report.set("ingest.feed_to_served_p50_ms", ms(elapsed));
        let same =
            untraced_counters == setup_counters && pipeline::same_outcome(&untraced, &outcome);
        report.checks.check(1, same, || {
            "stage replay diverged from Cleaner::clean".to_owned()
        });
        drop(untraced);
        let (_, _, serial) = minipar::with_jobs(1, || {
            pipeline::pass(&mut Tracer::off(), &json, &corpus.archive, &oracle)
        });
        report.checks.check(1, serial == setup_counters, || {
            "counter block differs at NVD_JOBS=1".to_owned()
        });
    }
    report.counters = counters;
    report
}
