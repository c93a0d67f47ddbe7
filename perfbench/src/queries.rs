//! The served query mix and its accounting.
//!
//! The stream is `WorkloadProfile::mixed` with the quality queries folded
//! in: every 5th point lookup becomes a `QualityLookup` of the same id,
//! and every 4th histogram poll becomes a `QualityHistogram` on a seeded
//! axis. Parity is checked against `LinearScan::with_ledger`, the
//! full-walk replica.

use std::time::Instant;

use nvd_model::prelude::Database;
use nvd_serve::{
    generate_workload, LinearScan, Query, QueryEngine, ScoreAxis, ServeIndex, WorkloadProfile,
};

use crate::report::{fnv, Checks, Report, FNV_OFFSET};
use crate::stats::{ratio, select_rank};

/// Query kinds, in the order per-kind metrics are reported.
pub const KINDS: [&str; 8] = [
    "point_lookup",
    "vendor_watch",
    "product_watch",
    "patch_window",
    "severity_histogram",
    "cwe_histogram",
    "quality_lookup",
    "quality_histogram",
];

/// Seed-stream tag for the quality-histogram axis draws.
const AXIS_STREAM: u64 = 0x7175_616c_6178_6973;

/// Index of a query's kind in [`KINDS`].
pub fn kind_of(query: &Query) -> usize {
    match query {
        Query::PointLookup(_) => 0,
        Query::VendorWatch(_) => 1,
        Query::ProductWatch(_) => 2,
        Query::PatchWindow { .. } => 3,
        Query::SeverityHistogram { .. } => 4,
        Query::CweHistogram => 5,
        Query::QualityLookup(_) => 6,
        Query::QualityHistogram { .. } => 7,
    }
}

/// The seeded query stream over `db`: `queries` long, deterministic in
/// `(db, queries, seed)`.
pub fn query_stream(db: &Database, queries: usize, seed: u64) -> Vec<Query> {
    const AXES: [ScoreAxis; 4] = [
        ScoreAxis::Completeness,
        ScoreAxis::Consistency,
        ScoreAxis::Accuracy,
        ScoreAxis::Overall,
    ];
    let mut stream = generate_workload(db, &WorkloadProfile::mixed(queries), seed);
    let mut axis_state = minipar::derive_seed(seed, AXIS_STREAM);
    let (mut points, mut polls) = (0usize, 0usize);
    for query in &mut stream {
        match query {
            Query::PointLookup(id) => {
                let id = *id;
                points += 1;
                if points % 5 == 0 {
                    *query = Query::QualityLookup(id);
                }
            }
            Query::SeverityHistogram { .. } | Query::CweHistogram => {
                polls += 1;
                if polls % 4 == 0 {
                    axis_state = minipar::derive_seed(axis_state, AXIS_STREAM);
                    let axis = AXES[(axis_state >> 33) as usize % AXES.len()];
                    *query = Query::QualityHistogram { axis };
                }
            }
            _ => {}
        }
    }
    stream
}

/// Per-kind latency samples (nanoseconds) and returned item counts.
#[derive(Debug, Default)]
pub struct KindSamples {
    ns: [Vec<u32>; 8],
    items: u64,
    /// Sweeps folded in; counts are reported per sweep.
    sweeps: u64,
}

impl KindSamples {
    pub fn record(&mut self, kind: usize, ns: u32, items: usize) {
        self.ns[kind].push(ns);
        self.items += items as u64;
    }

    /// Marks the end of one sweep over a query list.
    pub fn end_sweep(&mut self) {
        self.sweeps += 1;
    }

    /// Reports `serve.<kind>.{count,p50_us,p99_us}` (count per sweep),
    /// `serve.items_per_query` and the pooled `serve.query_p99_us`.
    pub fn report(&mut self, report: &mut Report) {
        let sweeps = self.sweeps.max(1);
        let mut pooled: Vec<u32> = Vec::new();
        let mut queries = 0u64;
        for (kind, samples) in KINDS.iter().zip(self.ns.iter_mut()) {
            queries += samples.len() as u64;
            pooled.extend_from_slice(samples);
            let mut us = |p| select_rank(samples, p).map_or(0.0, |ns| f64::from(ns) / 1e3);
            let (p50, p99) = (us(50.0), us(99.0));
            report.set(
                format!("serve.{kind}.count"),
                (samples.len() as u64 / sweeps) as f64,
            );
            report.set(format!("serve.{kind}.p50_us"), p50);
            report.set(format!("serve.{kind}.p99_us"), p99);
        }
        report.set(
            "serve.items_per_query",
            ratio(self.items as f64, queries as f64),
        );
        let p99 = select_rank(&mut pooled, 99.0).map_or(0.0, |ns| f64::from(ns) / 1e3);
        report.set("serve.query_p99_us", p99);
    }
}

/// Nanoseconds since `start`, saturated into a `u32` sample.
pub fn elapsed_ns(start: Instant) -> u32 {
    u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// Answers every query on the index, timing each into `samples`, and on
/// the linear scan: each disagreement is one failed check. Returns the
/// order-sensitive checksum and the item count of the index's answers.
pub fn check_against_scan(
    checks: &mut Checks,
    index: &ServeIndex<'_>,
    scan: &LinearScan<'_>,
    queries: &[Query],
    samples: &mut KindSamples,
) -> (u64, u64) {
    let (mut checksum, mut items, mut mismatched) = (FNV_OFFSET, 0u64, 0u64);
    for query in queries {
        let start = Instant::now();
        let answer = index.execute(query);
        samples.record(kind_of(query), elapsed_ns(start), answer.len());
        if answer != scan.execute(query) {
            mismatched += 1;
        }
        checksum = fnv(checksum, &answer.checksum().to_le_bytes());
        items += answer.len() as u64;
    }
    samples.end_sweep();
    checks.record(queries.len() as u64, mismatched, || {
        "served answers differ from the linear scan".to_owned()
    });
    (checksum, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_synth::{generate, SynthConfig};

    #[test]
    fn stream_folds_in_quality_queries_deterministically() {
        let db = generate(&SynthConfig::with_scale(0.003, 5)).database;
        let a = query_stream(&db, 4_000, 9);
        assert_eq!(a, query_stream(&db, 4_000, 9));
        assert_eq!(a.len(), 4_000);
        let mut counts = [0usize; 8];
        for q in &a {
            counts[kind_of(q)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "every kind appears: {counts:?}"
        );
        // One lookup in five was rewritten.
        let lookups = counts[0] + counts[6];
        assert_eq!(counts[6], lookups / 5);
    }
}
