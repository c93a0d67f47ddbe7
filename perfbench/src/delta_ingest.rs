//! `delta_ingest`: the write path. A corrupt dated delta stream — the
//! base snapshot as feed 0, then feeds rotating through truncated JSON,
//! conflicting duplicates and schema drift — goes through
//! `CleanState::ingest_json` with the backport on. A rejected feed is
//! re-ingested from its clean payload, as a re-fetching ingester would,
//! and counts as the same feed. After every feed the serve index is
//! rebuilt over the cleaned corpus with its ledger attached: today that
//! rebuild is the only correct way to serve cleaned data.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use minipar::derive_seed;
use nvd_clean::severity::backport_v3;
use nvd_clean::{CleanOptions, CleanOutcome, CleanState, Cleaner, OracleVerifier, QualityLedger};
use nvd_model::prelude::{CveEntry, CveId};
use nvd_serve::{LinearScan, ServeIndex};
use nvd_synth::faults::{corrupt_delta_stream, FaultStream};
use nvd_synth::SynthConfig;

use crate::metrics::STAGE_SPANS;
use crate::pipeline;
use crate::queries::{check_against_scan, query_stream, KindSamples};
use crate::report::{debug_hash, fnv, Checks, Counters, Report, FNV_OFFSET};
use crate::stats::{median, median_ms, ms, ratio};
use crate::trace::Tracer;
use crate::{RunConfig, Size};

/// Seed-stream tag deriving the corruption overlay from the workload seed.
const FAULT_STREAM: u64 = 0x6465_6c74_6166_6c74;

/// Seed-stream tag for the parity sample's queries.
const SAMPLE_STREAM: u64 = 0x6465_6c74_6173_6d70;

/// The generated inputs, plus the ground truth each feed is graded on.
struct Input {
    fault: FaultStream,
    base_json: String,
    /// Per feed (base first): the clean payload a re-fetching ingester
    /// receives after the feed is rejected.
    replays: Vec<Option<String>>,
    /// Per feed (base first): the entries it delivers when clean.
    delivered: Vec<BTreeMap<CveId, CveEntry>>,
    oracle: OracleVerifier,
}

impl Input {
    fn generate(size: &Size, seed: u64) -> Self {
        let fault = corrupt_delta_stream(
            &SynthConfig::with_scale(size.scale, seed),
            size.feeds,
            derive_seed(seed, FAULT_STREAM),
        );
        let stream = &fault.stream;
        let base_json = pipeline::feed_json(&stream.base, "base");
        let mut replays = vec![None];
        let mut delivered = vec![stream.base.iter().map(|e| (e.id, e.clone())).collect()];
        for (corrupt, feed) in fault.feeds.iter().zip(&stream.feeds) {
            replays.push(
                corrupt.poisoned.then(|| {
                    serde_json::to_string(&feed.document).expect("feed documents serialize")
                }),
            );
            delivered.push(feed.entries().into_iter().map(|e| (e.id, e)).collect());
        }
        let oracle = OracleVerifier::new(stream.corpus.truth.vendor_alias_map());
        Self {
            fault,
            base_json,
            replays,
            delivered,
            oracle,
        }
    }

    fn feeds(&self) -> usize {
        self.delivered.len()
    }

    fn label(&self, k: usize) -> String {
        match k {
            0 => "base".to_owned(),
            _ => self.fault.feeds[k - 1].date.to_string(),
        }
    }

    fn payload(&self, k: usize) -> &str {
        match k {
            0 => &self.base_json,
            _ => &self.fault.feeds[k - 1].json,
        }
    }

    /// Items delivered over the whole stream, base included.
    fn items(&self) -> usize {
        self.delivered.iter().map(BTreeMap::len).sum()
    }

    /// What a correct ingester does with feed `k`: whether it rejects the
    /// payload, the raw ids it quarantines, and the ids it admits (after
    /// the clean replay, for a rejected feed).
    fn truth(&self, k: usize) -> (bool, &[String], Vec<CveId>) {
        let all = || self.delivered[k].keys().copied().collect();
        match k {
            0 => (false, &[], all()),
            _ => {
                let corrupt = &self.fault.feeds[k - 1];
                if corrupt.poisoned {
                    (true, &[], all())
                } else {
                    (
                        false,
                        &corrupt.quarantined_ids,
                        corrupt.admitted_ids.clone(),
                    )
                }
            }
        }
    }
}

/// What one pass over the stream produced.
struct Pass {
    feed_times: Vec<Duration>,
    /// The backport re-timed on each feed's cleaned corpus (traced only).
    backport_ms: Vec<f64>,
    counters: Counters,
    state: CleanState,
    last: CleanOutcome,
}

/// Ingests every feed in order, rebuilding the served index after each;
/// grades each feed against the ground truth outside the timed region.
fn stream_pass(input: &Input, tracer: &mut Tracer, checks: &mut Checks) -> Pass {
    let archive = &input.fault.stream.corpus.archive;
    let mut state = CleanState::new(CleanOptions::default());
    let mut feed_times = Vec::new();
    let mut backport_ms = Vec::new();
    let (mut rejected_feeds, mut admitted, mut quarantined) = (0u64, 0u64, 0u64);
    let mut digests = FNV_OFFSET;
    let mut last = None;
    for k in 0..input.feeds() {
        let label = input.label(k);
        let root = tracer.enter("feed");
        let start = Instant::now();
        let mut rejected = false;
        let mut result = tracer.time("ingest.apply", || {
            state.ingest_json(&label, input.payload(k), archive, &input.oracle)
        });
        if let (Err(_), Some(replay)) = (&result, &input.replays[k]) {
            rejected = true;
            result = tracer.time("ingest.apply", || {
                state.ingest_json(&label, replay, archive, &input.oracle)
            });
        }
        let ingested = match result {
            Ok(ingested) => ingested,
            Err(e) => {
                tracer.exit(root);
                checks.check(1, false, || format!("feed {label} failed to ingest: {e}"));
                continue;
            }
        };
        let index = pipeline::serve(tracer, &ingested.outcome);
        feed_times.push(start.elapsed());
        tracer.exit(root);
        let digest = index.digest();
        drop(index);
        digests = fnv(digests, &digest.to_le_bytes());

        let (want_rejected, want_quarantined, want_admitted) = input.truth(k);
        let mut raw_ids: Vec<&str> = ingested
            .quarantined
            .iter()
            .map(|r| r.raw_id.as_str())
            .collect();
        raw_ids.sort_unstable();
        raw_ids.dedup();
        let ok = rejected == want_rejected
            && raw_ids
                .iter()
                .copied()
                .eq(want_quarantined.iter().map(String::as_str))
            && ingested.admitted == want_admitted.len()
            && want_admitted
                .iter()
                .all(|id| state.database().get(id) == input.delivered[k].get(id));
        checks.check(1, ok, || {
            format!("feed {label} diverged from its ground truth")
        });
        rejected_feeds += u64::from(rejected);
        admitted += ingested.admitted as u64;
        quarantined += ingested.quarantined.len() as u64;

        if tracer.enabled() {
            let options = CleanOptions::default().backport;
            let (refit, ms) = tracer.timed("severity.backport", || {
                backport_v3(&ingested.outcome.database, &options)
            });
            std::hint::black_box(refit);
            backport_ms.push(ms);
        }
        last = Some((ingested.outcome, digest));
    }
    let (last, digest) = last.expect("the base snapshot ingests");
    let mut counters = Counters::default();
    counters.put("feeds", feed_times.len() as u64);
    counters.put("rejected_feeds", rejected_feeds);
    counters.put("admitted", admitted);
    counters.put("quarantined", quarantined);
    counters.put("index_digests", digests);
    counters.nest("final", &pipeline::outcome_counters(&last, digest));
    Pass {
        feed_times,
        backport_ms,
        counters,
        state,
        last,
    }
}

pub fn run(size: &Size, cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    if cfg.trace {
        report.tracer = Tracer::on();
    }

    let mut setups: Vec<Duration> = Vec::new();
    let mut input = None;
    for _ in 0..size.setups.max(1) {
        drop(input.take());
        let start = Instant::now();
        input = Some(Input::generate(size, cfg.seed));
        setups.push(start.elapsed());
    }
    let input = input.expect("at least one set-up ran");
    let items = input.items() as f64;

    let mut feed_ms: Vec<f64> = Vec::new();
    let mut walls: Vec<Duration> = Vec::new();
    let mut traced_walls: Vec<Duration> = Vec::new();
    let mut traced_feed_ms = 0.0;
    let mut backport_ms: Vec<f64> = Vec::new();
    let mut reference: Option<Pass> = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let pass = stream_pass(&input, &mut Tracer::off(), &mut report.checks);
        let wall: Duration = pass.feed_times.iter().sum();
        walls.push(wall);
        let pass_feed_ms: Vec<f64> = pass.feed_times.iter().map(|&d| ms(d)).collect();
        report
            .notes
            .push(format!("pass_feed_ms {pass_feed_ms:.1?}"));
        feed_ms.extend(pass_feed_ms);
        let same = reference
            .as_ref()
            .is_none_or(|r| r.counters == pass.counters);
        report.checks.check(1, same, || {
            "counter block changed between passes".to_owned()
        });
        if reference.is_none() {
            reference = Some(pass);
        }
        if cfg.trace {
            let pass = stream_pass(&input, &mut report.tracer, &mut report.checks);
            let wall: Duration = pass.feed_times.iter().sum();
            traced_walls.push(wall);
            traced_feed_ms += ms(wall);
            backport_ms.extend(&pass.backport_ms);
            let same = reference
                .as_ref()
                .is_some_and(|r| r.counters == pass.counters);
            report.checks.check(1, same, || {
                "traced pass counters differ from untraced".to_owned()
            });
        }
    }
    let reference = reference.expect("one pass ran");
    let archive = &input.fault.stream.corpus.archive;

    // The incremental outcome must equal batch-cleaning the accumulated
    // corpus; its ledger additionally carries the quarantine.
    let batch = Cleaner::default().clean(reference.state.database(), archive, &input.oracle);
    let last = &reference.last;
    let ok = batch.database.as_slice() == last.database.as_slice()
        && debug_hash(&batch.report) == debug_hash(&last.report)
        && last.ledger
            == QualityLedger::assemble(
                &batch.database,
                &batch.report,
                reference.state.quarantine(),
            );
    report.checks.check(1, ok, || {
        "incremental outcome differs from Cleaner::clean over the accumulated corpus".to_owned()
    });

    let index = ServeIndex::build(&last.database).with_quality(&last.ledger);
    let scan = LinearScan::with_ledger(&last.database, &last.ledger);
    let sample = query_stream(
        &last.database,
        size.sample,
        derive_seed(cfg.seed, SAMPLE_STREAM),
    );
    let mut kinds = KindSamples::default();
    let (checksum, returned) =
        check_against_scan(&mut report.checks, &index, &scan, &sample, &mut kinds);
    drop(index);
    let mut counters = reference.counters.clone();
    counters.put("sample.checksum", checksum);
    counters.put("sample.items", returned);

    // Both end-to-end figures come from the median pass: on a shared host
    // that is steadier than the median of single feeds, whose costs differ
    // by feed. The per-feed median is the per-layer
    // `ingest.feed_to_served_p50_ms`.
    let pass_ms = median_ms(&walls);
    report.set("setup_s", median_ms(&setups) / 1e3);
    report.set("throughput_per_s", items / (pass_ms / 1e3));
    report.set("latency_p50_ms", pass_ms / input.feeds() as f64);
    report.notes.push(format!(
        "feeds={} items={items} passes untraced={} traced={}",
        input.feeds(),
        walls.len(),
        traced_walls.len()
    ));

    if cfg.trace {
        pipeline::report_spans(
            &mut report,
            "feed",
            &["ingest.apply", "serve.build", "serve.attach_quality"],
        );
        report.set("ingest.feed_to_served_p50_ms", median(&feed_ms));
        report.set("severity.backport_ms", median(&backport_ms));
        report.set(
            "severity.backport_share",
            ratio(backport_ms.iter().sum(), traced_feed_ms),
        );
        for (name, counter) in [
            ("ingest.admitted", "admitted"),
            ("ingest.quarantined", "quarantined"),
            ("ingest.rejected_feeds", "rejected_feeds"),
        ] {
            report.set(name, reference.counters.get(counter) as f64);
        }
        pipeline::report_trace_cost(
            &mut report,
            median_ms(&walls),
            median_ms(&traced_walls),
            "feed",
        );

        // The clean stages, replayed once over the accumulated corpus.
        let json = pipeline::feed_json(reference.state.database(), "replay");
        let (_, replayed, _) = pipeline::pass(&mut report.tracer, &json, archive, &input.oracle);
        report
            .checks
            .check(1, pipeline::same_outcome(&replayed, &batch), || {
                "stage replay diverged from Cleaner::clean".to_owned()
            });
        let stages: Vec<&str> = STAGE_SPANS
            .into_iter()
            .filter(|s| {
                !matches!(
                    *s,
                    "severity.backport" | "serve.build" | "serve.attach_quality"
                )
            })
            .collect();
        pipeline::report_spans(&mut report, "replay", &stages);
        pipeline::report_outcome(&mut report, last);
        pipeline::report_models(&mut report, &last.database);
        kinds.report(&mut report);

        let serial = minipar::with_jobs(1, || {
            stream_pass(&input, &mut Tracer::off(), &mut report.checks)
        });
        report
            .checks
            .check(1, serial.counters == reference.counters, || {
                "counter block differs at NVD_JOBS=1".to_owned()
            });
    }
    report.counters = counters;
    report
}
