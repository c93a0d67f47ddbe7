//! # webarchive
//!
//! A simulated web for the `nvd-clean` workspace — the Rust reproduction of
//! *"Cleaning the NVD"* (Anwar et al., DSN 2021).
//!
//! §4.1 of the paper estimates vulnerability **disclosure dates** by crawling
//! the reference URLs attached to CVE entries: 591.4K URLs over 5,997
//! domains, with per-domain crawlers for the top 50 domains (covering >85%
//! of URLs). Those domains fall into three categories — other vulnerability
//! databases, bug trackers / mail archives, and vendor security advisories —
//! render dates in wildly different formats (including non-English pages
//! such as `jvn.jp`), and 14 of them are dead.
//!
//! Reproducing that offline requires a web substitute, which this crate
//! provides:
//!
//! * [`domains`] — a registry of reference domains modelled on the paper's
//!   top-50 (category, date style, liveness, popularity weight);
//! * [`dates`] — formatting and parsing for every date style the registry
//!   uses (ISO, long/slash US dates, RFC-2822 mail stamps, Bugzilla
//!   timestamps, Japanese 年月日);
//! * [`page`] — page templates that render a CVE's disclosure date the way
//!   its domain would, buried in realistic noise (copyright years, CVE IDs,
//!   unrelated dates);
//! * [`archive`] — the [`WebArchive`] store with a fetch API that fails for
//!   dead hosts and missing pages;
//! * [`crawler`] — the per-domain date extractors ([`CrawlerSet`]) the
//!   disclosure estimator dispatches on;
//! * [`latency`] — deterministic virtual-time latency profiles per domain
//!   (the corpus generator calibrates one model per seed);
//! * [`faults`] — seeded fault injection: per-host fault modes (hard-down,
//!   outage windows, transient failures) in a [`FaultPlan`], plus the
//!   [`RetryPolicy`] (timeouts, bounded retries with exponential backoff +
//!   URL-hashed jitter, per-host circuit breaker) the scheduler recovers
//!   with — all pure functions of the seed, never of wall-clock time;
//! * [`scheduler`] — the request/response crawl engine: one scheduler with
//!   per-domain politeness queues, a bounded in-flight window, retries,
//!   timeouts and circuit-open resolutions under the engine's fault plan,
//!   and a virtual-clock completion order that is bit-identical at any
//!   `NVD_JOBS`. [`CrawlEngine::crawl_results`] is the one crawl call:
//!   page fetch + date extraction fanned over the `minipar` pool, results
//!   keyed by request id; under an empty plan it skips the schedule.
//!
//! ## Example
//!
//! ```
//! use nvd_model::prelude::Date;
//! use webarchive::{CrawlerSet, WebArchive};
//!
//! let mut archive = WebArchive::new();
//! let date: Date = "2011-02-07".parse()?;
//! let url = archive.publish("www.securityfocus.com", "CVE-2011-0700", date, 7)?;
//!
//! let crawlers = CrawlerSet::builtin();
//! let page = archive.fetch(&url)?;
//! assert_eq!(crawlers.extract(page), Some(date));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod archive;
pub mod crawler;
pub mod dates;
pub mod domains;
pub mod faults;
pub mod latency;
pub mod page;
pub mod scheduler;

pub use archive::{host_of_url, FetchError, Page, WebArchive};
pub use crawler::CrawlerSet;
pub use dates::DateStyle;
pub use domains::{builtin_domains, domain_spec, DomainCategory, DomainSpec};
pub use faults::{FaultMode, FaultPlan, RetryPolicy};
pub use latency::{LatencyModel, LatencyProfile};
pub use scheduler::{
    schedule, CrawlCompletion, CrawlEngine, CrawlResult, CrawlSchedule, RequestFate, DEFAULT_WINDOW,
};
