//! Disclosure-date estimation from reference URLs (§4.1).
//!
//! NVD publication dates record when an entry was *added to the database*,
//! not when the vulnerability became public. The paper approximates the
//! public disclosure date as "the minimum of the dates extracted from the
//! reference URLs or the NVD publication date", using per-domain crawlers
//! for the top reference domains.
//!
//! Crawling runs on the [`webarchive::scheduler`] engine: every reference
//! of the batch becomes an explicit request, with host interning, per-host
//! memoised dispatch, and page fetch + date extraction fanned over the
//! `minipar` pool. The per-CVE fold is order-independent over the result
//! multiset, so the estimator consumes the engine's request-keyed results
//! ([`CrawlEngine::crawl_results`]), and estimates are bit-identical at any
//! `NVD_JOBS` setting. The workspace determinism suite pins them to a serial
//! fetch-and-extract oracle.

use std::collections::BTreeMap;

use nvd_model::prelude::{CveEntry, CveId, Database, Date};
use webarchive::{CrawlEngine, CrawlResult, CrawlerSet, WebArchive};

/// How extracted reference dates are folded into one estimate.
///
/// The paper uses [`Minimum`](AggregationRule::Minimum); the others exist
/// for the ablation called out in DESIGN.md (§"Design choices").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationRule {
    /// Earliest extracted date (the paper's rule).
    #[default]
    Minimum,
    /// Median extracted date — robust to one bogus early date. With an
    /// even number of dates the *upper* median (index `n/2` of the sorted
    /// dates) is taken: between the two middle candidates it prefers the
    /// later, i.e. more conservative, disclosure estimate.
    Median,
    /// Mean extracted date (rounded towards the epoch).
    Mean,
}

/// The estimate for one CVE, with crawl bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisclosureEstimate {
    /// Estimated public disclosure date (never later than the NVD
    /// publication date under the Minimum rule).
    pub estimated: Date,
    /// Reference URLs attached to the entry.
    pub references: usize,
    /// Pages successfully fetched.
    pub fetched: usize,
    /// Fetches that failed (dead hosts, missing pages).
    pub failed: usize,
    /// Dates successfully extracted from fetched pages.
    pub extracted: usize,
}

impl DisclosureEstimate {
    /// Days between the estimate and the given publication date (the
    /// paper's *lag time*); non-negative under the Minimum rule.
    pub fn lag_days(&self, published: Date) -> i32 {
        published.days_since(self.estimated)
    }
}

/// The §4.1 estimator: crawls an entry's references and aggregates dates.
#[derive(Debug, Clone)]
pub struct DisclosureEstimator<'a> {
    archive: &'a WebArchive,
    crawlers: CrawlerSet,
    rule: AggregationRule,
}

impl<'a> DisclosureEstimator<'a> {
    /// An estimator over the given archive with the paper's setup (builtin
    /// crawler set, minimum rule).
    pub fn new(archive: &'a WebArchive) -> Self {
        Self {
            archive,
            crawlers: CrawlerSet::builtin(),
            rule: AggregationRule::Minimum,
        }
    }

    /// Replaces the crawler set (e.g. `CrawlerSet::top_n(10)` for the
    /// coverage ablation).
    pub fn with_crawlers(mut self, crawlers: CrawlerSet) -> Self {
        self.crawlers = crawlers;
        self
    }

    /// Replaces the aggregation rule.
    pub fn with_rule(mut self, rule: AggregationRule) -> Self {
        self.rule = rule;
        self
    }

    /// The crawl engine this estimator drives.
    fn engine(&self) -> CrawlEngine<'_> {
        CrawlEngine::new(self.archive, &self.crawlers)
    }

    /// Folds one entry's request-keyed crawl results into its estimate.
    ///
    /// `results[i]` must answer `entry.references[i]`. The fold is
    /// order-independent over the result multiset — every aggregation rule
    /// reduces a set of dates — which is exactly what lets the engine hand
    /// results over in request order rather than completion order. Under
    /// the paper's Minimum rule the date is folded incrementally; only
    /// Median/Mean buffer the multiset.
    fn fold_entry(&self, entry: &CveEntry, results: &[CrawlResult]) -> DisclosureEstimate {
        let mut fetched = 0usize;
        let mut failed = 0usize;
        let mut extracted = 0usize;
        let mut min: Option<Date> = None;
        let mut dates: Vec<Date> = Vec::new();
        for result in results {
            match result {
                CrawlResult::Fetched(date) => {
                    fetched += 1;
                    if let Some(d) = *date {
                        extracted += 1;
                        match self.rule {
                            AggregationRule::Minimum => {
                                min = Some(min.map_or(d, |m| m.min(d)));
                            }
                            AggregationRule::Median | AggregationRule::Mean => dates.push(d),
                        }
                    }
                }
                CrawlResult::HostUnreachable
                | CrawlResult::NotFound
                | CrawlResult::TimedOut
                | CrawlResult::CircuitOpen => failed += 1,
            }
        }
        let aggregated = match self.rule {
            AggregationRule::Minimum => min,
            AggregationRule::Median => {
                dates.sort_unstable();
                dates.get(dates.len() / 2).copied()
            }
            AggregationRule::Mean => {
                if dates.is_empty() {
                    None
                } else {
                    let sum: i64 = dates.iter().map(|d| i64::from(d.day_number())).sum();
                    Some(Date::from_day_number((sum / dates.len() as i64) as i32))
                }
            }
        };
        // "We approximated its public disclosure date as the minimum of the
        // dates extracted from the reference URLs or the NVD publication
        // date."
        let estimated = match aggregated {
            Some(d) if self.rule != AggregationRule::Minimum => d,
            Some(d) => d.min(entry.published),
            None => entry.published,
        };
        DisclosureEstimate {
            estimated,
            references: entry.references.len(),
            fetched,
            failed,
            extracted,
        }
    }

    /// Estimates the disclosure date of one entry (a one-entry batch on the
    /// scheduled engine).
    pub fn estimate(&self, entry: &CveEntry) -> DisclosureEstimate {
        let urls: Vec<&str> = entry.references.iter().map(|r| r.url.as_str()).collect();
        let results = self.engine().crawl_results(&urls);
        self.fold_entry(entry, &results)
    }

    /// Estimates every entry of a database.
    ///
    /// All references of the batch go through the crawl engine as one bulk
    /// request — host interning, per-host memoised liveness/crawler
    /// dispatch, fetch + extraction fanned over the `minipar` pool
    /// (`NVD_JOBS` controls the width). Results come back keyed by request
    /// id, so each entry folds exactly the contiguous result slice its
    /// references occupy; every aggregation rule is order-independent over
    /// the date multiset, so the map is bit-identical at any thread count.
    pub fn estimate_all(&self, db: &Database) -> BTreeMap<CveId, DisclosureEstimate> {
        let entries: Vec<&CveEntry> = db.iter().collect();
        let total_refs: usize = entries.iter().map(|e| e.references.len()).sum();
        let mut urls: Vec<&str> = Vec::with_capacity(total_refs);
        for e in &entries {
            urls.extend(e.references.iter().map(|r| r.url.as_str()));
        }
        let results = self.engine().crawl_results(&urls);
        let mut items: Vec<(&CveEntry, &[CrawlResult])> = Vec::with_capacity(entries.len());
        let mut offset = 0usize;
        for e in entries {
            let next = offset + e.references.len();
            items.push((e, &results[offset..next]));
            offset = next;
        }
        minipar::par_map(&items, |&(e, slice)| (e.id, self.fold_entry(e, slice)))
            .into_iter()
            .collect()
    }
}

/// Summary statistics over a set of estimates (feeds Fig. 1 and §4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct LagSummary {
    /// All lag values, sorted ascending.
    pub lags: Vec<i32>,
    /// Fraction with zero lag (paper: ≈38%).
    pub zero_fraction: f64,
    /// Fraction with lag ≤ 7 days (the paper quotes ≈70% "within a week").
    pub within_week_fraction: f64,
    /// Fraction with lag > 7 days (paper: ≈28%).
    pub over_week_fraction: f64,
}

impl LagSummary {
    /// Builds the summary from per-CVE estimates and their entries.
    ///
    /// The week buckets partition: every lag is counted by exactly one of
    /// `within_week_fraction` (`≤ 7`) and `over_week_fraction` (`> 7`), so
    /// the two always sum to 1 on a non-empty corpus — including at a lag
    /// of exactly seven days.
    pub fn compute(db: &Database, estimates: &BTreeMap<CveId, DisclosureEstimate>) -> Self {
        let mut lags: Vec<i32> = db
            .iter()
            .filter_map(|e| {
                estimates
                    .get(&e.id)
                    .map(|est| est.lag_days(e.published).max(0))
            })
            .collect();
        lags.sort_unstable();
        let n = lags.len().max(1) as f64;
        let zero = lags.iter().filter(|&&l| l == 0).count() as f64 / n;
        let within = lags.iter().filter(|&&l| l <= 7).count() as f64 / n;
        let over = lags.iter().filter(|&&l| l > 7).count() as f64 / n;
        Self {
            lags,
            zero_fraction: zero,
            within_week_fraction: within,
            over_week_fraction: over,
        }
    }

    /// The empirical CDF at the given lag value.
    pub fn cdf(&self, lag: i32) -> f64 {
        if self.lags.is_empty() {
            return 0.0;
        }
        let idx = self.lags.partition_point(|&l| l <= lag);
        idx as f64 / self.lags.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::prelude::Reference;

    fn date(s: &str) -> Date {
        s.parse().unwrap()
    }

    fn entry_with_refs(archive: &mut WebArchive, urls: &[(&str, &str)]) -> CveEntry {
        let mut e = CveEntry::new("CVE-2011-0700".parse().unwrap(), date("2011-03-14"));
        for (host, d) in urls {
            let url = archive.publish(host, "CVE-2011-0700", date(d), 10).unwrap();
            e.references.push(Reference::new(url));
        }
        e
    }

    #[test]
    fn minimum_rule_picks_earliest_reference() {
        // The paper's running example: NVD publication 2011-03-14 but an
        // advisory disclosed it 2011-02-07.
        let mut archive = WebArchive::new();
        let e = entry_with_refs(
            &mut archive,
            &[
                ("www.securityfocus.com", "2011-02-07"),
                ("seclists.org", "2011-03-01"),
            ],
        );
        let est = DisclosureEstimator::new(&archive).estimate(&e);
        assert_eq!(est.estimated, date("2011-02-07"));
        assert_eq!(est.lag_days(e.published), 35);
        assert_eq!(est.extracted, 2);
    }

    #[test]
    fn no_references_falls_back_to_publication() {
        let archive = WebArchive::new();
        let e = CveEntry::new("CVE-2000-0001".parse().unwrap(), date("2000-06-01"));
        let est = DisclosureEstimator::new(&archive).estimate(&e);
        assert_eq!(est.estimated, date("2000-06-01"));
        assert_eq!(est.lag_days(e.published), 0);
    }

    #[test]
    fn dead_hosts_are_counted_and_skipped() {
        let mut archive = WebArchive::new();
        let e = entry_with_refs(
            &mut archive,
            &[("osvdb.org", "2009-01-05"), ("seclists.org", "2009-02-01")],
        );
        let mut e = e;
        e.published = date("2009-03-01");
        let est = DisclosureEstimator::new(&archive).estimate(&e);
        assert_eq!(est.failed, 1, "osvdb is dead");
        assert_eq!(est.estimated, date("2009-02-01"), "live ref only");
    }

    #[test]
    fn estimate_never_exceeds_publication_under_minimum() {
        // Reference later than publication: publication wins.
        let mut archive = WebArchive::new();
        let mut e = entry_with_refs(&mut archive, &[("seclists.org", "2012-09-01")]);
        e.published = date("2012-01-01");
        let est = DisclosureEstimator::new(&archive).estimate(&e);
        assert_eq!(est.estimated, date("2012-01-01"));
    }

    #[test]
    fn reduced_crawler_coverage_weakens_estimates() {
        let mut archive = WebArchive::new();
        let e = entry_with_refs(
            &mut archive,
            &[
                ("kb.juniper.net", "2016-02-01"), // light-weight host
                ("www.securityfocus.com", "2016-03-01"),
            ],
        );
        let mut e = e;
        e.published = date("2016-04-01");
        let full = DisclosureEstimator::new(&archive).estimate(&e);
        let narrow = DisclosureEstimator::new(&archive)
            .with_crawlers(CrawlerSet::top_n(3))
            .estimate(&e);
        assert_eq!(full.estimated, date("2016-02-01"));
        assert_eq!(narrow.estimated, date("2016-03-01"), "juniper not covered");
    }

    #[test]
    fn median_rule_resists_outlier() {
        let mut archive = WebArchive::new();
        let mut e = entry_with_refs(
            &mut archive,
            &[
                ("www.securityfocus.com", "2001-01-01"), // bogus early
                ("seclists.org", "2014-05-05"),
                ("www.debian.org", "2014-05-06"),
            ],
        );
        e.published = date("2014-05-10");
        let med = DisclosureEstimator::new(&archive)
            .with_rule(AggregationRule::Median)
            .estimate(&e);
        assert_eq!(med.estimated, date("2014-05-05"));
    }

    #[test]
    fn even_count_median_takes_the_upper_middle() {
        // Four extracted dates: the documented convention is index n/2 of
        // the sorted dates — the *upper* of the two middle candidates.
        let mut archive = WebArchive::new();
        let mut e = entry_with_refs(
            &mut archive,
            &[
                ("www.securityfocus.com", "2014-05-01"),
                ("seclists.org", "2014-05-03"),
                ("www.debian.org", "2014-05-05"),
                ("marc.info", "2014-05-07"),
            ],
        );
        e.published = date("2014-06-01");
        let med = DisclosureEstimator::new(&archive)
            .with_rule(AggregationRule::Median)
            .estimate(&e);
        assert_eq!(med.extracted, 4);
        assert_eq!(med.estimated, date("2014-05-05"), "upper median");
    }

    #[test]
    fn mark_dead_mid_crawl_fails_subsequent_fetches() {
        // Failure injection between crawl batches: a host that answered the
        // first sweep goes dark before the second.
        let mut archive = WebArchive::new();
        let mut e = entry_with_refs(
            &mut archive,
            &[
                ("seclists.org", "2014-04-01"),
                ("www.debian.org", "2014-04-10"),
            ],
        );
        e.published = date("2014-05-01");
        let before = DisclosureEstimator::new(&archive).estimate(&e);
        assert_eq!((before.fetched, before.failed), (2, 0));
        assert_eq!(before.estimated, date("2014-04-01"));

        archive.mark_dead("seclists.org");
        let after = DisclosureEstimator::new(&archive).estimate(&e);
        assert_eq!((after.fetched, after.failed), (1, 1), "outage counted");
        assert_eq!(after.estimated, date("2014-04-10"), "dead ref dropped");
    }

    #[test]
    fn malformed_page_fetches_but_extracts_nothing() {
        let mut archive = WebArchive::new();
        archive.insert_raw(
            "https://seclists.org/fake/advisory",
            "<html>no parseable date anywhere</html>".into(),
        );
        let mut e = CveEntry::new("CVE-2015-0001".parse().unwrap(), date("2015-06-01"));
        e.references
            .push(Reference::new("https://seclists.org/fake/advisory"));
        let est = DisclosureEstimator::new(&archive).estimate(&e);
        assert_eq!(est.fetched, 1, "malformed page still fetches");
        assert_eq!(est.extracted, 0, "no date extracted");
        assert_eq!(est.failed, 0);
        assert_eq!(est.estimated, e.published, "falls back to publication");
    }

    #[test]
    fn engine_matches_legacy_per_entry() {
        // The pre-engine loop fetched each reference serially and
        // aggregated inline; these are its estimates for this entry, whose
        // osvdb.org reference is dead. The same loop checks generated
        // corpora in `tests/determinism.rs`.
        let mut archive = WebArchive::new();
        let mut e = entry_with_refs(
            &mut archive,
            &[
                ("osvdb.org", "2013-01-05"),
                ("seclists.org", "2013-02-01"),
                ("jvn.jp", "2013-02-03"),
            ],
        );
        e.published = date("2013-03-01");
        for (rule, legacy) in [
            (AggregationRule::Minimum, "2013-02-01"),
            (AggregationRule::Median, "2013-02-03"),
            (AggregationRule::Mean, "2013-02-02"),
        ] {
            let estimator = DisclosureEstimator::new(&archive).with_rule(rule);
            assert_eq!(
                estimator.estimate(&e),
                DisclosureEstimate {
                    estimated: date(legacy),
                    references: 3,
                    fetched: 2,
                    failed: 1,
                    extracted: 2,
                },
                "engine diverged from the pre-engine loop under {rule:?}"
            );
        }
    }

    #[test]
    fn lag_buckets_partition_at_seven_days() {
        // Lags 0, 7 and 30 — the 7-day lag used to fall in neither week
        // bucket (within counted ≤6, over counted >7).
        let mut archive = WebArchive::new();
        let mut db = Database::new();
        for (i, d) in ["2015-03-01", "2015-02-22", "2015-01-30"]
            .iter()
            .enumerate()
        {
            let id: CveId = format!("CVE-2015-{:04}", i + 1).parse().unwrap();
            let mut e = CveEntry::new(id, date("2015-03-01"));
            let url = archive
                .publish("seclists.org", &id.to_string(), date(d), 0)
                .unwrap();
            e.references.push(Reference::new(url));
            db.push(e);
        }
        let est = DisclosureEstimator::new(&archive).estimate_all(&db);
        let summary = LagSummary::compute(&db, &est);
        assert_eq!(summary.lags, vec![0, 7, 30]);
        assert!(
            (summary.within_week_fraction + summary.over_week_fraction - 1.0).abs() < 1e-12,
            "week buckets must partition: within {} + over {}",
            summary.within_week_fraction,
            summary.over_week_fraction
        );
        assert!((summary.within_week_fraction - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lag_summary_cdf_is_monotone() {
        let mut archive = WebArchive::new();
        let mut db = Database::new();
        for (i, d) in ["2015-01-05", "2015-01-05", "2015-02-01"]
            .iter()
            .enumerate()
        {
            let id: CveId = format!("CVE-2015-{:04}", i + 1).parse().unwrap();
            let mut e = CveEntry::new(id, date("2015-03-01"));
            let url = archive
                .publish("seclists.org", &id.to_string(), date(d), 0)
                .unwrap();
            e.references.push(Reference::new(url));
            db.push(e);
        }
        let est = DisclosureEstimator::new(&archive).estimate_all(&db);
        let summary = LagSummary::compute(&db, &est);
        assert!(summary.cdf(0) <= summary.cdf(30));
        assert!(summary.cdf(10_000) >= 0.999);
    }
}
