//! The typed query surface of the read path.
//!
//! Queries are the practitioner asks the NVD-users study catalogues:
//! "is this CVE in the database" ([`Query::PointLookup`]), "what affects the
//! software I run" ([`Query::VendorWatch`] / [`Query::ProductWatch`]),
//! "what went public in this window" ([`Query::PatchWindow`]), and the
//! severity / vulnerability-type breakdowns dashboards poll
//! ([`Query::SeverityHistogram`] / [`Query::CweHistogram`]).
//!
//! Every engine answering these queries — the sharded [`ServeIndex`] and
//! the linear-scan [`LinearScan`] replica — must return *canonical*
//! results: CVE id lists ascending (except patch windows, which are in
//! ascending `(published, id)` order) and histograms ascending by key with
//! zero-count buckets omitted. Canonical form is what makes "bit-identical
//! at any shard count and any `NVD_JOBS`" a checkable contract rather than
//! an aspiration.
//!
//! [`ServeIndex`]: crate::ServeIndex
//! [`LinearScan`]: crate::LinearScan

use std::borrow::Cow;

use nvd_clean::quality::{QualityIssue, QualityScore, Resolution, ScoreAxis};
use nvd_model::prelude::{CveEntry, CveId, CweId, Date, ProductName, Severity, VendorName};

/// A single read-path request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Fetch one entry by CVE id.
    PointLookup(CveId),
    /// All CVE ids affecting a vendor (the watchlist sweep of §4.2).
    VendorWatch(VendorName),
    /// All CVE ids affecting a product, across vendors.
    ProductWatch(ProductName),
    /// CVE ids published inside `since..=until`, in ascending
    /// `(published, id)` order (the §4.1 window-of-exposure scan).
    PatchWindow {
        /// First publication date included.
        since: Date,
        /// Last publication date included.
        until: Date,
    },
    /// Entry counts per effective severity band (v3 when present, else
    /// v2), optionally restricted to a publication window.
    SeverityHistogram {
        /// Inclusive publication-date window, `None` for the whole corpus.
        window: Option<(Date, Date)>,
    },
    /// Entry counts per effective specific CWE id.
    CweHistogram,
    /// The quality-assessment record of one CVE: its per-axis
    /// [`QualityScore`] plus the typed issue list the cleaning stages
    /// emitted for it (the "how trustworthy is this entry" ask).
    QualityLookup(CveId),
    /// Entry counts per score decile (bucket = axis score / 10, so
    /// 0..=10) on one quality axis — the corpus-health dashboard poll.
    QualityHistogram {
        /// The quality axis to bucket on.
        axis: ScoreAxis,
    },
}

/// The answer to a [`Query`], borrowing entry data from the served database.
///
/// Equality, [`len`](Self::len) and [`checksum`](Self::checksum) look only
/// at the carried values, never at whether an id list is borrowed or owned.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult<'db> {
    /// Point-lookup hit or miss.
    Entry(Option<&'db CveEntry>),
    /// An ordered CVE id list (watch queries ascending by id; patch
    /// windows ascending by `(published, id)`).
    /// [`ServeIndex`](crate::ServeIndex) lends its posting lists
    /// ([`Cow::Borrowed`]); [`LinearScan`](crate::LinearScan) collects an
    /// owned list per query ([`Cow::Owned`]).
    Ids(Cow<'db, [CveId]>),
    /// Non-empty severity buckets, ascending by band.
    SeverityHistogram(Vec<(Severity, usize)>),
    /// Non-empty CWE buckets, ascending by id.
    CweHistogram(Vec<(CweId, usize)>),
    /// Quality-lookup hit (score plus the served issue slice, possibly
    /// empty for an issue-free entry) or miss (`None`: unknown CVE).
    Quality(Option<(QualityScore, &'db [QualityIssue])>),
    /// Non-empty score-decile buckets `(bucket, count)`, ascending by
    /// bucket; every served entry lands in exactly one bucket.
    QualityHistogram(Vec<(u8, usize)>),
}

/// 64-bit FNV-1a, the workspace's standing choice for cheap stable hashing.
pub(crate) fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Stable hash of a CVE id, used both for shard routing and checksums.
pub(crate) fn hash_cve_id(id: CveId) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &id.year().to_le_bytes());
    h = fnv1a(h, &id.sequence().to_le_bytes());
    h
}

impl QueryResult<'_> {
    /// Number of items carried by the result (0 or 1 for point lookups).
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Entry(e) => usize::from(e.is_some()),
            QueryResult::Ids(ids) => ids.len(),
            QueryResult::SeverityHistogram(h) => h.len(),
            QueryResult::CweHistogram(h) => h.len(),
            // A hit carries the score (1 item) plus its issues.
            QueryResult::Quality(q) => q.map_or(0, |(_, issues)| 1 + issues.len()),
            QueryResult::QualityHistogram(h) => h.len(),
        }
    }

    /// Whether the result carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An order-sensitive stable checksum of the result.
    ///
    /// Cheap enough to fold over millions of workload queries, yet strict
    /// enough that any reordering, dropped id, or shifted count changes it —
    /// perfbench and the determinism tests compare engines and shard counts
    /// through this.
    pub fn checksum(&self) -> u64 {
        match self {
            QueryResult::Entry(e) => {
                let mut h = fnv1a(FNV_OFFSET, b"entry");
                if let Some(entry) = e {
                    h ^= hash_cve_id(entry.id);
                    h = fnv1a(h, &entry.published.day_number().to_le_bytes());
                    h = fnv1a(h, &(entry.references.len() as u64).to_le_bytes());
                }
                h
            }
            QueryResult::Ids(ids) => {
                let mut h = fnv1a(FNV_OFFSET, b"ids");
                for &id in ids.iter() {
                    h = fnv1a(h, &hash_cve_id(id).to_le_bytes());
                }
                h
            }
            QueryResult::SeverityHistogram(buckets) => {
                let mut h = fnv1a(FNV_OFFSET, b"sev");
                for (band, count) in buckets {
                    h = fnv1a(h, band.abbrev().as_bytes());
                    h = fnv1a(h, &(*count as u64).to_le_bytes());
                }
                h
            }
            QueryResult::CweHistogram(buckets) => {
                let mut h = fnv1a(FNV_OFFSET, b"cwe");
                for (id, count) in buckets {
                    h = fnv1a(h, &id.number().to_le_bytes());
                    h = fnv1a(h, &(*count as u64).to_le_bytes());
                }
                h
            }
            QueryResult::Quality(q) => {
                let mut h = fnv1a(FNV_OFFSET, b"qual");
                if let Some((score, issues)) = q {
                    h = fnv1a(h, &[score.completeness, score.consistency, score.accuracy]);
                    for issue in *issues {
                        h = fnv1a(h, &[issue.kind.code(), issue.severity.code()]);
                        match &issue.resolution {
                            Resolution::AutoFixed { fix } => {
                                h = fnv1a(h, b"fix");
                                h = fnv1a(h, fix.as_bytes());
                            }
                            Resolution::NeedsReview => h = fnv1a(h, b"rev"),
                        }
                        h = fnv1a(h, issue.evidence.as_bytes());
                    }
                }
                h
            }
            QueryResult::QualityHistogram(buckets) => {
                let mut h = fnv1a(FNV_OFFSET, b"qhst");
                for (bucket, count) in buckets {
                    h = fnv1a(h, &[*bucket]);
                    h = fnv1a(h, &(*count as u64).to_le_bytes());
                }
                h
            }
        }
    }
}

/// Anything that can answer [`Query`]s over one database.
///
/// Both the sharded index and the linear-scan replica implement this;
/// perfbench and the tests drive whole workloads through the trait so the
/// two paths stay comparable query-for-query.
pub trait QueryEngine {
    /// Answers one query in canonical form.
    fn execute<'db>(&'db self, query: &Query) -> QueryResult<'db>;
}

/// Order-sensitive digest of a whole workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSummary {
    /// Combined checksum over every result, in query order.
    pub checksum: u64,
    /// Total items returned across all queries.
    pub items: usize,
}

/// Runs every query through `engine`, folding results into a summary.
pub fn run_workload<E: QueryEngine + ?Sized>(engine: &E, queries: &[Query]) -> WorkloadSummary {
    let mut checksum = FNV_OFFSET;
    let mut items = 0usize;
    for query in queries {
        let result = engine.execute(query);
        checksum = fnv1a(checksum, &result.checksum().to_le_bytes());
        items += result.len();
    }
    WorkloadSummary { checksum, items }
}

/// The effective severity band served for an entry: the modern v3 band
/// when scored, else the v2 band, else `None` (unscored entries are
/// invisible to severity queries).
pub(crate) fn effective_severity(entry: &CveEntry) -> Option<Severity> {
    entry.severity_v3().or_else(|| entry.severity_v2())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_sensitive() {
        let a: CveId = "CVE-2001-0001".parse().unwrap();
        let b: CveId = "CVE-2001-0002".parse().unwrap();
        let fwd = QueryResult::Ids(vec![a, b].into()).checksum();
        let rev = QueryResult::Ids(vec![b, a].into()).checksum();
        assert_ne!(fwd, rev);
        assert_ne!(QueryResult::Ids(vec![a].into()).checksum(), fwd);
        let borrowed = [a, b];
        assert_eq!(
            QueryResult::Ids(Cow::Borrowed(&borrowed[..])).checksum(),
            fwd
        );
    }

    #[test]
    fn checksum_distinguishes_variants() {
        let empty_ids = QueryResult::Ids(Vec::new().into());
        let miss = QueryResult::Entry(None);
        assert_ne!(empty_ids.checksum(), miss.checksum());
        assert!(empty_ids.is_empty());
        assert!(miss.is_empty());
    }

    #[test]
    fn histogram_checksums_cover_counts() {
        let one = QueryResult::SeverityHistogram(vec![(Severity::High, 1)]);
        let two = QueryResult::SeverityHistogram(vec![(Severity::High, 2)]);
        assert_ne!(one.checksum(), two.checksum());
        assert_eq!(one.len(), 1);
    }
}
