//! The legacy read path: answer every query by scanning the whole database.
//!
//! This is the parity oracle the index is checked against — it reproduces,
//! per query, exactly what pre-index callers did: `Database::iter` plus an
//! ad-hoc filter (`examples/vendor_watch.rs` walked `cves_by_vendor`,
//! `examples/patch_window.rs` walked every entry). Answers are canonical
//! (see [`crate::query`]) so they compare bit-for-bit against
//! [`ServeIndex`](crate::ServeIndex); only the cost differs — every query
//! is `O(database)` here, independent of selectivity, and every id list is
//! collected into an owned vector where the index lends a slice.

use std::borrow::Cow;

use nvd_clean::quality::{QualityLedger, QualityScore};
use nvd_model::prelude::{CveId, Database};

use crate::index::{histogram_from_counts, quality_histogram_from_counts};
use crate::query::{effective_severity, Query, QueryEngine, QueryResult};

/// Full-scan query engine over an unindexed database.
#[derive(Debug)]
pub struct LinearScan<'a> {
    db: &'a Database,
    /// Quality ledger for [`Query::QualityLookup`] / `QualityHistogram`
    /// answers; without one, every served entry answers as issue-free
    /// (perfect score) — the same convention an index without attached
    /// quality follows, so the two engines stay comparable either way.
    ledger: Option<&'a QualityLedger>,
}

impl<'a> LinearScan<'a> {
    /// Wraps a database without building anything.
    pub fn new(db: &'a Database) -> Self {
        Self { db, ledger: None }
    }

    /// Wraps a database plus the quality ledger its cleaning run emitted,
    /// so quality queries answer from real per-CVE issue records.
    pub fn with_ledger(db: &'a Database, ledger: &'a QualityLedger) -> Self {
        Self {
            db,
            ledger: Some(ledger),
        }
    }
}

impl QueryEngine for LinearScan<'_> {
    fn execute<'db>(&'db self, query: &Query) -> QueryResult<'db> {
        match query {
            Query::PointLookup(id) => {
                QueryResult::Entry(self.db.iter().find(|entry| entry.id == *id))
            }
            Query::VendorWatch(vendor) => {
                let mut ids: Vec<CveId> = self
                    .db
                    .iter()
                    .filter(|entry| entry.affected.iter().any(|cpe| cpe.vendor == *vendor))
                    .map(|entry| entry.id)
                    .collect();
                ids.sort_unstable();
                QueryResult::Ids(Cow::Owned(ids))
            }
            Query::ProductWatch(product) => {
                let mut ids: Vec<CveId> = self
                    .db
                    .iter()
                    .filter(|entry| entry.affected.iter().any(|cpe| cpe.product == *product))
                    .map(|entry| entry.id)
                    .collect();
                ids.sort_unstable();
                QueryResult::Ids(Cow::Owned(ids))
            }
            Query::PatchWindow { since, until } => {
                let mut hits: Vec<_> = self
                    .db
                    .iter()
                    .filter(|entry| entry.published >= *since && entry.published <= *until)
                    .map(|entry| (entry.published, entry.id))
                    .collect();
                hits.sort_unstable();
                QueryResult::Ids(Cow::Owned(hits.into_iter().map(|(_, id)| id).collect()))
            }
            Query::SeverityHistogram { window } => {
                let mut counts = [0usize; 5];
                for entry in self.db.iter() {
                    if let Some((since, until)) = window {
                        if entry.published < *since || entry.published > *until {
                            continue;
                        }
                    }
                    if let Some(band) = effective_severity(entry) {
                        counts[band as usize] += 1;
                    }
                }
                QueryResult::SeverityHistogram(histogram_from_counts(&counts))
            }
            Query::CweHistogram => {
                let mut buckets: Vec<(nvd_model::prelude::CweId, usize)> = Vec::new();
                let mut pairs: Vec<_> = self
                    .db
                    .iter()
                    .filter_map(|entry| entry.effective_cwe().specific())
                    .collect();
                pairs.sort_unstable();
                for cwe in pairs {
                    match buckets.last_mut() {
                        Some((id, count)) if *id == cwe => *count += 1,
                        _ => buckets.push((cwe, 1)),
                    }
                }
                QueryResult::CweHistogram(buckets)
            }
            Query::QualityLookup(id) => {
                if self.db.iter().any(|entry| entry.id == *id) {
                    let issues = self.ledger.map_or(&[][..], |l| l.issues_for(id));
                    QueryResult::Quality(Some((QualityScore::from_issues(issues), issues)))
                } else {
                    QueryResult::Quality(None)
                }
            }
            Query::QualityHistogram { axis } => {
                let mut counts = [0usize; 11];
                for entry in self.db.iter() {
                    let issues = self.ledger.map_or(&[][..], |l| l.issues_for(&entry.id));
                    let bucket = QualityScore::from_issues(issues).bucket(*axis);
                    counts[bucket as usize] += 1;
                }
                QueryResult::QualityHistogram(quality_histogram_from_counts(&counts))
            }
        }
    }
}
