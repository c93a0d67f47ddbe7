//! The typed quality-assessment layer.
//!
//! The paper's core contribution is *assessment*: every rectification in
//! §4 is first a measurement of how broken an entry is, and only then a
//! fix. This module makes that explicit. Each cleaning stage is a
//! detector that emits typed [`QualityIssue`]s — kind, severity,
//! human-readable evidence, and whether the pipeline auto-fixed the
//! problem or merely flagged it — into a per-CVE [`QualityLedger`]
//! through [`QualityLedger::assemble`], instead of mutating silently.
//!
//! Entries and the corpus are scored on three axes
//! ([`ScoreAxis::Completeness`], [`ScoreAxis::Consistency`],
//! [`ScoreAxis::Accuracy`]) with integer-point arithmetic, so scores —
//! like the ledger itself — are **bit-identical** at any `NVD_JOBS` and
//! across the batch and incremental cleaning paths: every detector reads
//! only deterministic report state ([`CleanReport`]) and the cleaned
//! database, in `BTreeMap`/database order, on one thread.
//!
//! The ledger is the payload `nvd-serve` exposes per CVE
//! (`Query::QualityLookup` / `Query::QualityHistogram`) and the source of
//! the `paper-repro --quality-md` report.

use std::collections::BTreeMap;

use nvd_model::cwe::CweLabel;
use nvd_model::prelude::{CveId, Database};

use crate::cleaner::CleanReport;
use crate::incremental::{QuarantineLedger, QuarantineReason};

/// The quality dimension an issue (or a score) speaks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScoreAxis {
    /// Required data is present (disclosure evidence, CWE label, CVSS v3).
    Completeness,
    /// The entry agrees with the rest of the corpus (canonical names,
    /// no conflicting deliveries).
    Consistency,
    /// Recorded values are right (true disclosure date, concrete CWE).
    Accuracy,
    /// The unweighted mean of the three axes above.
    Overall,
}

impl ScoreAxis {
    /// The three concrete axes, in canonical order (no `Overall`).
    pub const CONCRETE: [ScoreAxis; 3] = [
        ScoreAxis::Completeness,
        ScoreAxis::Consistency,
        ScoreAxis::Accuracy,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Completeness => "completeness",
            Self::Consistency => "consistency",
            Self::Accuracy => "accuracy",
            Self::Overall => "overall",
        }
    }

    /// Stable wire code for checksums and digests.
    pub fn code(self) -> u8 {
        match self {
            Self::Completeness => 0,
            Self::Consistency => 1,
            Self::Accuracy => 2,
            Self::Overall => 3,
        }
    }
}

/// What kind of defect an issue records. One variant per detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IssueKind {
    /// §4.1: no disclosure date could be extracted from any reference
    /// (no references at all, or every fetch came back dead/dateless).
    MissingDisclosure,
    /// §4.1: the NVD publication date post-dates the earliest reference —
    /// the lag the paper measures; the estimate rectifies it.
    PublicationLag,
    /// §4.2: the entry's CPE vendor field used a non-canonical spelling
    /// and was rewritten by the consolidation mapping.
    VendorAlias,
    /// §4.2: the entry's CPE product field used a non-canonical spelling
    /// and was rewritten by the consolidation mapping.
    ProductAlias,
    /// §4.4: the entry carries a degenerate `NVD-CWE-Other` label instead
    /// of a concrete weakness type.
    DegenerateCwe,
    /// §4.4: the entry carries no usable type at all (`NVD-CWE-noinfo` or
    /// unassigned).
    MissingCwe,
    /// §4.3: the entry has no CVSS v3 vector; the backport predicts one
    /// for the v2-only population.
    MissingCvssV3,
    /// Ingestion: a feed item for this id was quarantined instead of
    /// admitted (malformed or a conflicting duplicate).
    Quarantined,
}

impl IssueKind {
    /// Every kind, in canonical (code) order.
    pub const ALL: [IssueKind; 8] = [
        IssueKind::MissingDisclosure,
        IssueKind::PublicationLag,
        IssueKind::VendorAlias,
        IssueKind::ProductAlias,
        IssueKind::DegenerateCwe,
        IssueKind::MissingCwe,
        IssueKind::MissingCvssV3,
        IssueKind::Quarantined,
    ];

    /// Stable wire code for checksums and digests.
    pub fn code(self) -> u8 {
        match self {
            Self::MissingDisclosure => 0,
            Self::PublicationLag => 1,
            Self::VendorAlias => 2,
            Self::ProductAlias => 3,
            Self::DegenerateCwe => 4,
            Self::MissingCwe => 5,
            Self::MissingCvssV3 => 6,
            Self::Quarantined => 7,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::MissingDisclosure => "missing-disclosure",
            Self::PublicationLag => "publication-lag",
            Self::VendorAlias => "vendor-alias",
            Self::ProductAlias => "product-alias",
            Self::DegenerateCwe => "degenerate-cwe",
            Self::MissingCwe => "missing-cwe",
            Self::MissingCvssV3 => "missing-cvss-v3",
            Self::Quarantined => "quarantined",
        }
    }

    /// The score axis this kind of defect degrades.
    pub fn axis(self) -> ScoreAxis {
        match self {
            Self::MissingDisclosure | Self::MissingCwe | Self::MissingCvssV3 => {
                ScoreAxis::Completeness
            }
            Self::VendorAlias | Self::ProductAlias | Self::Quarantined => ScoreAxis::Consistency,
            Self::PublicationLag | Self::DegenerateCwe => ScoreAxis::Accuracy,
        }
    }

    /// Points deducted from the axis when the issue is unresolved
    /// ([`Resolution::NeedsReview`]); auto-fixed issues deduct half.
    pub fn penalty(self) -> u8 {
        match self {
            Self::MissingDisclosure => 25,
            Self::PublicationLag => 10,
            Self::VendorAlias => 20,
            Self::ProductAlias => 15,
            Self::DegenerateCwe => 20,
            Self::MissingCwe => 25,
            Self::MissingCvssV3 => 30,
            Self::Quarantined => 40,
        }
    }

    /// The base severity a detector assigns issues of this kind.
    pub fn base_severity(self) -> IssueSeverity {
        match self {
            Self::PublicationLag => IssueSeverity::Info,
            Self::Quarantined => IssueSeverity::Error,
            _ => IssueSeverity::Warning,
        }
    }
}

/// How serious an issue is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IssueSeverity {
    /// Routine, fully rectified defects.
    Info,
    /// Defects that degrade analyses if left unaddressed.
    Warning,
    /// Data that cannot be trusted at all.
    Error,
}

impl IssueSeverity {
    /// Stable wire code for checksums and digests.
    pub fn code(self) -> u8 {
        match self {
            Self::Info => 0,
            Self::Warning => 1,
            Self::Error => 2,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Info => "info",
            Self::Warning => "warning",
            Self::Error => "error",
        }
    }
}

/// Whether the pipeline repaired the defect or only flagged it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resolution {
    /// The stage rewrote the entry; `fix` says what it did.
    AutoFixed {
        /// Human-readable description of the applied fix.
        fix: String,
    },
    /// Detected but not repairable automatically.
    NeedsReview,
}

impl Resolution {
    /// Whether this resolution is [`Resolution::AutoFixed`].
    pub fn is_auto_fixed(&self) -> bool {
        matches!(self, Self::AutoFixed { .. })
    }
}

/// One detected quality defect on one entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualityIssue {
    /// What kind of defect this is.
    pub kind: IssueKind,
    /// How serious it is.
    pub severity: IssueSeverity,
    /// Human-readable evidence the detector based its verdict on.
    pub evidence: String,
    /// Whether the pipeline fixed it or flagged it.
    pub resolution: Resolution,
}

impl QualityIssue {
    /// An issue with the kind's base severity.
    pub fn new(kind: IssueKind, evidence: String, resolution: Resolution) -> Self {
        Self {
            kind,
            severity: kind.base_severity(),
            evidence,
            resolution,
        }
    }
}

/// Per-entry quality score: integer points 0–100 per axis, so scores are
/// exactly reproducible everywhere the ledger is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QualityScore {
    /// Completeness points (0–100).
    pub completeness: u8,
    /// Consistency points (0–100).
    pub consistency: u8,
    /// Accuracy points (0–100).
    pub accuracy: u8,
}

impl QualityScore {
    /// The score of an issue-free entry.
    pub fn perfect() -> Self {
        Self {
            completeness: 100,
            consistency: 100,
            accuracy: 100,
        }
    }

    /// Scores a slice of issues: each deducts its kind's penalty from its
    /// kind's axis (half when auto-fixed), saturating at zero.
    pub fn from_issues(issues: &[QualityIssue]) -> Self {
        let mut score = Self::perfect();
        for issue in issues {
            let full = issue.kind.penalty();
            let deduction = if issue.resolution.is_auto_fixed() {
                full / 2
            } else {
                full
            };
            let slot = match issue.kind.axis() {
                ScoreAxis::Completeness => &mut score.completeness,
                ScoreAxis::Consistency => &mut score.consistency,
                ScoreAxis::Accuracy => &mut score.accuracy,
                ScoreAxis::Overall => unreachable!("no issue kind maps to Overall"),
            };
            *slot = slot.saturating_sub(deduction);
        }
        score
    }

    /// The integer mean of the three axes.
    pub fn overall(&self) -> u8 {
        ((self.completeness as u16 + self.consistency as u16 + self.accuracy as u16) / 3) as u8
    }

    /// The points on one axis (`Overall` is the integer mean).
    pub fn axis(&self, axis: ScoreAxis) -> u8 {
        match axis {
            ScoreAxis::Completeness => self.completeness,
            ScoreAxis::Consistency => self.consistency,
            ScoreAxis::Accuracy => self.accuracy,
            ScoreAxis::Overall => self.overall(),
        }
    }

    /// The decile histogram bucket (0–10) of one axis.
    pub fn bucket(&self, axis: ScoreAxis) -> u8 {
        self.axis(axis) / 10
    }
}

/// Corpus-level quality aggregates, derived from a ledger over a database.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusQuality {
    /// Entries scored (the database size).
    pub entries: usize,
    /// Entries carrying at least one issue.
    pub entries_with_issues: usize,
    /// Issues the pipeline repaired.
    pub auto_fixed: usize,
    /// Issues flagged for review.
    pub needs_review: usize,
    /// Issue counts per kind.
    pub by_kind: BTreeMap<IssueKind, usize>,
    /// Summed per-entry points per concrete axis
    /// (completeness, consistency, accuracy).
    pub point_sums: [u64; 3],
}

impl CorpusQuality {
    /// The corpus mean score on one axis, in 0–100 points.
    pub fn mean(&self, axis: ScoreAxis) -> f64 {
        if self.entries == 0 {
            return 100.0;
        }
        let sum = match axis {
            ScoreAxis::Completeness => self.point_sums[0],
            ScoreAxis::Consistency => self.point_sums[1],
            ScoreAxis::Accuracy => self.point_sums[2],
            ScoreAxis::Overall => {
                (self.point_sums[0] + self.point_sums[1] + self.point_sums[2]) / 3
            }
        };
        sum as f64 / self.entries as f64
    }
}

/// §4.1 as a detector: per-CVE disclosure estimates vs publication dates.
fn emit_disclosure(
    cleaned: &Database,
    estimates: &BTreeMap<CveId, crate::disclosure::DisclosureEstimate>,
    ledger: &mut QualityLedger,
) {
    for entry in cleaned.iter() {
        let Some(est) = estimates.get(&entry.id) else {
            continue;
        };
        if est.extracted == 0 {
            ledger.emit(
                entry.id,
                QualityIssue::new(
                    IssueKind::MissingDisclosure,
                    format!(
                        "no disclosure evidence: {} references, {} fetched, {} failed, 0 dates extracted",
                        est.references, est.fetched, est.failed
                    ),
                    Resolution::NeedsReview,
                ),
            );
        } else if est.estimated < entry.published {
            ledger.emit(
                entry.id,
                QualityIssue::new(
                    IssueKind::PublicationLag,
                    format!(
                        "NVD publication {} post-dates earliest reference {}",
                        entry.published, est.estimated
                    ),
                    Resolution::AutoFixed {
                        fix: format!("disclosure estimated as {}", est.estimated),
                    },
                ),
            );
        }
    }
}

/// §4.2 as a detector: CVEs whose CPE names the consolidation mapping
/// rewrote.
fn emit_names(names: &crate::cleaner::NameReport, ledger: &mut QualityLedger) {
    let stats = &names.apply_stats;
    for id in &stats.cves_with_vendor_fixes {
        ledger.emit(
            *id,
            QualityIssue::new(
                IssueKind::VendorAlias,
                "CPE vendor field used a non-canonical spelling".to_owned(),
                Resolution::AutoFixed {
                    fix: "vendor rewritten to its canonical name".to_owned(),
                },
            ),
        );
    }
    for id in &stats.cves_with_product_fixes {
        ledger.emit(
            *id,
            QualityIssue::new(
                IssueKind::ProductAlias,
                "CPE product field used a non-canonical spelling".to_owned(),
                Resolution::AutoFixed {
                    fix: "product rewritten to its canonical name".to_owned(),
                },
            ),
        );
    }
}

/// §4.4 as a detector: degenerate / missing CWE labels, fixed where the
/// description mining recovered concrete ids.
fn emit_cwe(cleaned: &Database, cwe: &crate::cwe_fix::CweFixOutcome, ledger: &mut QualityLedger) {
    for entry in cleaned.iter() {
        match entry.effective_cwe() {
            CweLabel::Other => ledger.emit(
                entry.id,
                QualityIssue::new(
                    IssueKind::DegenerateCwe,
                    "labelled NVD-CWE-Other; no concrete id minable from the description"
                        .to_owned(),
                    Resolution::NeedsReview,
                ),
            ),
            CweLabel::NoInfo | CweLabel::Unassigned => ledger.emit(
                entry.id,
                QualityIssue::new(
                    IssueKind::MissingCwe,
                    "no usable CWE label; no concrete id minable from the description".to_owned(),
                    Resolution::NeedsReview,
                ),
            ),
            CweLabel::Specific(_) => {
                let Some(additions) = cwe.corrections.get(&entry.id) else {
                    continue;
                };
                // The cleaned entry keeps its original labels ahead of
                // the mined additions, so a surviving degenerate label
                // tells us what the fix repaired; an entry whose whole
                // type set is the additions started unassigned-empty.
                let had_other = entry.cwes.contains(&CweLabel::Other);
                let had_missing = entry.cwes.contains(&CweLabel::NoInfo)
                    || entry.cwes.contains(&CweLabel::Unassigned)
                    || entry.cwes.len() == additions.len();
                let kind = if had_other {
                    IssueKind::DegenerateCwe
                } else if had_missing {
                    IssueKind::MissingCwe
                } else {
                    // Already-typed entry augmented with extra ids:
                    // an enrichment, not a defect.
                    continue;
                };
                let mined: Vec<String> = additions.iter().map(|id| id.to_string()).collect();
                ledger.emit(
                    entry.id,
                    QualityIssue::new(
                        kind,
                        if had_other {
                            "labelled NVD-CWE-Other despite the description citing a concrete id"
                                .to_owned()
                        } else {
                            "no usable CWE label despite the description citing a concrete id"
                                .to_owned()
                        },
                        Resolution::AutoFixed {
                            fix: format!("assigned mined {}", mined.join(", ")),
                        },
                    ),
                );
            }
        }
    }
}

/// §4.3 as a detector: entries without a CVSS v3 vector, auto-fixed where
/// the backport predicted one.
fn emit_severity(
    cleaned: &Database,
    severity: Option<&crate::severity::BackportOutcome>,
    ledger: &mut QualityLedger,
) {
    for entry in cleaned.iter() {
        if entry.has_v3() {
            continue;
        }
        let evidence = if entry.cvss_v2.is_some() {
            "CVSS v2 vector only; no v3 score recorded".to_owned()
        } else {
            "no CVSS vector recorded at all".to_owned()
        };
        let resolution = match severity.and_then(|bp| bp.predicted_severity(&entry.id)) {
            Some(sev) => Resolution::AutoFixed {
                fix: format!("backported v3 severity {sev:?}"),
            },
            None => Resolution::NeedsReview,
        };
        ledger.emit(
            entry.id,
            QualityIssue::new(IssueKind::MissingCvssV3, evidence, resolution),
        );
    }
}

/// The ingest quarantine path as a detector: every isolated feed item
/// becomes a [`IssueKind::Quarantined`] record, keyed by CVE id when the
/// raw id parses and unkeyed otherwise.
fn emit_quarantine(quarantine: &QuarantineLedger, ledger: &mut QualityLedger) {
    for record in quarantine.records() {
        let why = match &record.reason {
            QuarantineReason::MalformedItem { msg } => {
                format!("malformed item in feed {}: {msg}", record.feed)
            }
            QuarantineReason::ConflictingDuplicate => {
                format!("conflicting duplicate deliveries in feed {}", record.feed)
            }
        };
        let issue = QualityIssue::new(IssueKind::Quarantined, why, Resolution::NeedsReview);
        match record.raw_id.parse::<CveId>() {
            Ok(id) => ledger.emit(id, issue),
            Err(_) => ledger.emit_unkeyed(&record.raw_id, issue),
        }
    }
}

/// The per-CVE issue ledger: every defect each detector found, in stage
/// emission order per CVE, plus unkeyed records for quarantined items
/// whose raw id is not a valid CVE id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QualityLedger {
    issues: BTreeMap<CveId, Vec<QualityIssue>>,
    unkeyed: Vec<(String, QualityIssue)>,
}

impl QualityLedger {
    /// Builds the ledger for a cleaned database by running every
    /// stage-detector over the report, in the pipeline's canonical order
    /// (§4.1 disclosure, §4.2 names, §4.4 CWE, §4.3 severity, then the
    /// ingest quarantine ledger — empty for a batch clean). Each detector
    /// emits serially in `BTreeMap` / database order, so the ledger is
    /// bit-identical at any `NVD_JOBS` and across the batch and incremental
    /// paths.
    pub fn assemble(
        cleaned: &Database,
        report: &CleanReport,
        quarantine: &QuarantineLedger,
    ) -> Self {
        let mut ledger = Self::default();
        emit_disclosure(cleaned, &report.disclosure, &mut ledger);
        emit_names(&report.names, &mut ledger);
        emit_cwe(cleaned, &report.cwe, &mut ledger);
        emit_severity(cleaned, report.severity.as_ref(), &mut ledger);
        emit_quarantine(quarantine, &mut ledger);
        ledger
    }

    /// Records one issue against a CVE.
    pub fn emit(&mut self, id: CveId, issue: QualityIssue) {
        self.issues.entry(id).or_default().push(issue);
    }

    /// Records an issue whose subject has no parseable CVE id (quarantined
    /// raw feed items).
    pub fn emit_unkeyed(&mut self, raw_id: &str, issue: QualityIssue) {
        self.unkeyed.push((raw_id.to_owned(), issue));
    }

    /// The issues recorded against one CVE (empty when pristine).
    pub fn issues_for(&self, id: &CveId) -> &[QualityIssue] {
        self.issues.get(id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates `(id, issues)` for every CVE with at least one issue, in
    /// id order.
    pub fn iter(&self) -> impl Iterator<Item = (&CveId, &[QualityIssue])> {
        self.issues.iter().map(|(id, v)| (id, v.as_slice()))
    }

    /// Unkeyed issues: quarantined items whose raw id is not a CVE id.
    pub fn unkeyed(&self) -> &[(String, QualityIssue)] {
        &self.unkeyed
    }

    /// Number of CVEs carrying at least one issue.
    pub fn entries_with_issues(&self) -> usize {
        self.issues.len()
    }

    /// Total issues recorded, keyed and unkeyed.
    pub fn total_issues(&self) -> usize {
        self.issues.values().map(Vec::len).sum::<usize>() + self.unkeyed.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.issues.is_empty() && self.unkeyed.is_empty()
    }

    /// The quality score of one entry (perfect when issue-free).
    pub fn entry_score(&self, id: &CveId) -> QualityScore {
        QualityScore::from_issues(self.issues_for(id))
    }

    /// Corpus-level aggregates over a database: every entry is scored,
    /// issue-free entries as perfect.
    pub fn corpus_quality(&self, db: &Database) -> CorpusQuality {
        let mut q = CorpusQuality {
            entries: db.len(),
            entries_with_issues: 0,
            auto_fixed: 0,
            needs_review: 0,
            by_kind: BTreeMap::new(),
            point_sums: [0; 3],
        };
        for entry in db.iter() {
            let issues = self.issues_for(&entry.id);
            if !issues.is_empty() {
                q.entries_with_issues += 1;
            }
            for issue in issues {
                *q.by_kind.entry(issue.kind).or_insert(0) += 1;
                if issue.resolution.is_auto_fixed() {
                    q.auto_fixed += 1;
                } else {
                    q.needs_review += 1;
                }
            }
            let score = QualityScore::from_issues(issues);
            q.point_sums[0] += score.completeness as u64;
            q.point_sums[1] += score.consistency as u64;
            q.point_sums[2] += score.accuracy as u64;
        }
        for (raw, issue) in &self.unkeyed {
            let _ = raw;
            *q.by_kind.entry(issue.kind).or_insert(0) += 1;
            q.needs_review += 1;
        }
        q
    }

    /// Decile histogram (buckets 0–10) of per-entry scores on one axis
    /// over a database; issue-free entries land in bucket 10.
    pub fn histogram(&self, db: &Database, axis: ScoreAxis) -> [usize; 11] {
        let mut buckets = [0usize; 11];
        for entry in db.iter() {
            let score = QualityScore::from_issues(self.issues_for(&entry.id));
            buckets[score.bucket(axis) as usize] += 1;
        }
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(kind: IssueKind, fixed: bool) -> QualityIssue {
        QualityIssue::new(
            kind,
            "e".to_owned(),
            if fixed {
                Resolution::AutoFixed {
                    fix: "f".to_owned(),
                }
            } else {
                Resolution::NeedsReview
            },
        )
    }

    #[test]
    fn scoring_deducts_per_axis_and_halves_auto_fixes() {
        let issues = vec![
            issue(IssueKind::MissingDisclosure, false), // completeness -25
            issue(IssueKind::VendorAlias, true),        // consistency -10
            issue(IssueKind::PublicationLag, true),     // accuracy -5
        ];
        let s = QualityScore::from_issues(&issues);
        assert_eq!(s.completeness, 75);
        assert_eq!(s.consistency, 90);
        assert_eq!(s.accuracy, 95);
        assert_eq!(s.overall() as u16, (75u16 + 90 + 95) / 3);
        assert_eq!(s.bucket(ScoreAxis::Completeness), 7);
    }

    #[test]
    fn scoring_saturates_at_zero() {
        let issues: Vec<_> = (0..8)
            .map(|_| issue(IssueKind::MissingCvssV3, false))
            .collect();
        let s = QualityScore::from_issues(&issues);
        assert_eq!(s.completeness, 0);
        assert_eq!(s.consistency, 100);
    }

    #[test]
    fn ledger_collects_keyed_and_unkeyed() {
        let mut ledger = QualityLedger::default();
        let id: CveId = "CVE-2020-0001".parse().unwrap();
        ledger.emit(id, issue(IssueKind::Quarantined, false));
        ledger.emit(id, issue(IssueKind::MissingCwe, false));
        ledger.emit_unkeyed("CVE-BROKEN", issue(IssueKind::Quarantined, false));
        assert_eq!(ledger.issues_for(&id).len(), 2);
        assert_eq!(ledger.total_issues(), 3);
        assert_eq!(ledger.entries_with_issues(), 1);
        assert_eq!(ledger.unkeyed().len(), 1);
        assert!(ledger.entry_score(&id).consistency < 100);
    }

    #[test]
    fn every_kind_has_a_distinct_code_and_a_concrete_axis() {
        let mut codes: Vec<u8> = IssueKind::ALL.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), IssueKind::ALL.len());
        for kind in IssueKind::ALL {
            assert_ne!(kind.axis(), ScoreAxis::Overall);
            assert!(kind.penalty() > 0);
        }
    }
}
