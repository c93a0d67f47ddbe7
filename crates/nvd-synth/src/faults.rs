//! Seeded fault plans and corrupt delta feeds, with ground truth.
//!
//! The recovery paths grown in this workspace — retrying crawls
//! ([`webarchive::faults`]) and transactional ingestion with quarantine
//! (`nvd-clean::incremental`) — are only as testable as the failures
//! thrown at them. This module generates those
//! failures deterministically:
//!
//! * [`generate_fault_plan`] samples a per-host [`FaultPlan`] (hard-down
//!   mirrors, timed outages, transient flakiness) over the builtin domain
//!   registry, one plan per seed;
//! * [`corrupt_delta_stream`] wraps a [`DeltaStream`] in per-feed JSON
//!   payloads where a seeded rotation of feeds is corrupted — truncated
//!   JSON, conflicting duplicate CVE ids, schema drift — and each
//!   [`CorruptFeed`] carries **ground truth**: whether the whole feed is
//!   poison, which raw ids an ingester must quarantine, and which CVE ids
//!   it must admit.
//!
//! Both run on their own derived RNG streams, so fault generation never
//! perturbs the corpus, latency model or delta partitioning of a seed.

use nvd_model::cve::CveId;
use nvd_model::date::Date;
use nvd_model::feed::FeedDocument;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webarchive::{builtin_domains, FaultMode, FaultPlan};

use crate::delta::{generate_delta_stream, DeltaStream};
use crate::SynthConfig;

/// Stream tag for fault-plan sampling.
const FAULT_STREAM: u64 = 0x6661_756c_7421_0001;

/// Stream tag for feed corruption.
const CORRUPT_STREAM: u64 = 0x636f_7272_7570_7421;

/// Share of registry domains that are hard-down under a sampled plan.
const HARD_DOWN_SHARE: f64 = 0.08;

/// Share of registry domains with a timed outage window.
const OUTAGE_SHARE: f64 = 0.15;

/// Share of registry domains with transient per-attempt flakiness.
const TRANSIENT_SHARE: f64 = 0.25;

/// Samples the per-host fault plan for a seed: roughly 8% of registry
/// domains hard-down, 15% in a timed outage (starting within the first
/// 0.5 s of virtual time, lasting 0.1–2 s), 25% transiently flaky
/// (5–40% per-attempt failure), the rest healthy. The plan seed also
/// feeds the transient draws, so two plans with different seeds disagree
/// even on the same host set.
pub fn generate_fault_plan(seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(minipar::derive_seed(seed, FAULT_STREAM));
    let mut plan = FaultPlan::new(seed);
    for d in builtin_domains() {
        let draw = rng.gen::<f64>();
        if draw < HARD_DOWN_SHARE {
            plan.set(d.host, FaultMode::HardDown);
        } else if draw < HARD_DOWN_SHARE + OUTAGE_SHARE {
            let from = rng.gen_range(0..500_000u64);
            let len = rng.gen_range(100_000..2_000_000u64);
            plan.set(
                d.host,
                FaultMode::Outage {
                    from,
                    until: from + len,
                },
            );
        } else if draw < HARD_DOWN_SHARE + OUTAGE_SHARE + TRANSIENT_SHARE {
            let per_mille = rng.gen_range(50..400u16);
            plan.set(d.host, FaultMode::Transient { per_mille });
        }
    }
    plan
}

/// How one feed's JSON payload was corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedCorruption {
    /// The payload is the faithful serialization of the feed document.
    Clean,
    /// The payload is cut off mid-document: it cannot parse, so a
    /// transactional ingester must reject the whole feed untouched.
    TruncatedJson,
    /// Some items are repeated with conflicting content (and one with
    /// identical content): the conflicting copies must all be
    /// quarantined, the identical repeat collapsed benignly.
    ConflictingDuplicates,
    /// Some items drifted off-schema (broken id, unparseable date,
    /// garbage CVSS vector): each must be quarantined individually while
    /// the rest of the feed is admitted.
    SchemaDrift,
}

/// One delta feed's corrupt payload plus the ground truth an ingester is
/// graded against.
#[derive(Debug, Clone)]
pub struct CorruptFeed {
    /// The underlying feed's date.
    pub date: Date,
    /// Which corruption was applied.
    pub corruption: FeedCorruption,
    /// The (possibly corrupt) JSON payload to ingest.
    pub json: String,
    /// Whether the payload fails to parse as a whole — i.e. ingestion
    /// must error and mutate nothing.
    pub poisoned: bool,
    /// Raw `CVE_data_meta.ID` strings a correct ingester quarantines from
    /// this feed, ascending and distinct.
    pub quarantined_ids: Vec<String>,
    /// CVE ids a correct ingester admits from this feed, ascending.
    pub admitted_ids: Vec<CveId>,
}

/// A delta stream with per-feed corrupt payloads: the clean stream (for
/// replay-after-rollback comparisons) plus one [`CorruptFeed`] per feed.
#[derive(Debug, Clone)]
pub struct FaultStream {
    /// The untouched underlying delta stream.
    pub stream: DeltaStream,
    /// Per-feed corrupt payloads, aligned with `stream.feeds`.
    pub feeds: Vec<CorruptFeed>,
}

/// Generates a delta stream and corrupts its feed payloads.
///
/// Corruption kinds rotate over the feeds ([`FeedCorruption`] in a seeded
/// starting phase), so any stream of ≥ 4 feeds exercises every kind.
/// Deterministic in `(config, feed_count, fault_seed)`; the corpus and
/// delta partitioning are exactly [`generate_delta_stream`]'s — the fault
/// seed only decides the corruption overlay.
///
/// # Panics
///
/// Panics if `feed_count` is zero or the corpus is too small to carve.
pub fn corrupt_delta_stream(
    config: &SynthConfig,
    feed_count: usize,
    fault_seed: u64,
) -> FaultStream {
    let stream = generate_delta_stream(config, feed_count);
    let mut rng = StdRng::seed_from_u64(minipar::derive_seed(fault_seed, CORRUPT_STREAM));
    let phase = rng.gen_range(0..4usize);
    const KINDS: [FeedCorruption; 4] = [
        FeedCorruption::Clean,
        FeedCorruption::TruncatedJson,
        FeedCorruption::ConflictingDuplicates,
        FeedCorruption::SchemaDrift,
    ];

    let feeds = stream
        .feeds
        .iter()
        .enumerate()
        .map(|(f, feed)| {
            let corruption = KINDS[(f + phase) % KINDS.len()];
            corrupt_feed(feed.date, &feed.document, corruption, &mut rng)
        })
        .collect();
    FaultStream { stream, feeds }
}

/// Applies one corruption kind to a feed document and derives its ground
/// truth.
fn corrupt_feed(
    date: Date,
    document: &FeedDocument,
    corruption: FeedCorruption,
    rng: &mut StdRng,
) -> CorruptFeed {
    let all_ids = |doc: &FeedDocument| -> Vec<CveId> {
        let mut ids: Vec<CveId> = doc
            .items
            .iter()
            .map(|i| i.cve.meta.id.parse().expect("synth feed ids are valid"))
            .collect();
        ids.sort_unstable();
        ids
    };
    let serialize = |doc: &FeedDocument| -> String {
        serde_json::to_string(doc).expect("feed documents serialize")
    };

    match corruption {
        FeedCorruption::Clean => CorruptFeed {
            date,
            corruption,
            json: serialize(document),
            poisoned: false,
            quarantined_ids: Vec::new(),
            admitted_ids: all_ids(document),
        },
        FeedCorruption::TruncatedJson => {
            let full = serialize(document);
            CorruptFeed {
                date,
                corruption,
                json: full[..full.len() * 2 / 3].to_owned(),
                poisoned: true,
                quarantined_ids: Vec::new(),
                admitted_ids: Vec::new(),
            }
        }
        FeedCorruption::ConflictingDuplicates => {
            let mut doc = document.clone();
            let n = doc.items.len();
            // Conflict the first one or two items: repeat each with a
            // flipped published date, poisoning both copies.
            let conflicts = n.min(1 + rng.gen_range(0..2usize));
            let mut quarantined: Vec<String> = Vec::new();
            for i in 0..conflicts {
                let mut copy = doc.items[i].clone();
                copy.published_date = if copy.published_date.starts_with("1998-01-01") {
                    "1998-01-02".to_owned()
                } else {
                    "1998-01-01".to_owned()
                };
                quarantined.push(copy.cve.meta.id.clone());
                doc.items.push(copy);
            }
            // One identical repeat of the last unconflicted item, if any:
            // must collapse benignly, not quarantine.
            if conflicts < n {
                let copy = doc.items[n - 1].clone();
                doc.items.push(copy);
            }
            let quarantined_set: Vec<&str> = quarantined.iter().map(String::as_str).collect();
            let admitted = all_ids(document)
                .into_iter()
                .filter(|id| !quarantined_set.contains(&id.to_string().as_str()))
                .collect();
            quarantined.sort_unstable();
            quarantined.dedup();
            CorruptFeed {
                date,
                corruption,
                json: serialize(&doc),
                poisoned: false,
                quarantined_ids: quarantined,
                admitted_ids: admitted,
            }
        }
        FeedCorruption::SchemaDrift => {
            let mut doc = document.clone();
            let n = doc.items.len();
            let drifted = n.min(1 + rng.gen_range(0..3usize));
            let mut quarantined: Vec<String> = Vec::new();
            let mut dropped: Vec<String> = Vec::new();
            for i in 0..drifted {
                let item = &mut doc.items[i];
                dropped.push(item.cve.meta.id.clone());
                match i % 3 {
                    0 => {
                        // The id itself drifts: quarantined under the raw
                        // (broken) string, as an ingester sees it.
                        item.cve.meta.id = format!("CVE-DRIFT-{i}");
                        quarantined.push(item.cve.meta.id.clone());
                    }
                    1 => {
                        item.published_date = "not-a-date".to_owned();
                        quarantined.push(item.cve.meta.id.clone());
                    }
                    _ => {
                        let mut mutated = false;
                        for node in &mut item.configurations.nodes {
                            for m in &mut node.cpe_match {
                                m.cpe23_uri = "cpe:9.9:garbage".to_owned();
                                mutated = true;
                            }
                        }
                        if !mutated {
                            // No CPE rows to break: drift the date instead.
                            item.last_modified_date = "never".to_owned();
                        }
                        quarantined.push(item.cve.meta.id.clone());
                    }
                }
            }
            let admitted = all_ids(document)
                .into_iter()
                .filter(|id| !dropped.contains(&id.to_string()))
                .collect();
            quarantined.sort_unstable();
            quarantined.dedup();
            CorruptFeed {
                date,
                corruption,
                json: serialize(&doc),
                poisoned: false,
                quarantined_ids: quarantined,
                admitted_ids: admitted,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::feed::{item_to_entry, parse_feed_json};

    fn small_config() -> SynthConfig {
        SynthConfig::with_scale(0.002, 0xfa171)
    }

    #[test]
    fn fault_plan_is_deterministic_and_mixed() {
        let a = generate_fault_plan(11);
        let b = generate_fault_plan(11);
        assert_eq!(a, b, "equal seeds must give equal plans");
        assert_ne!(a, generate_fault_plan(12), "seeds must matter");
        let modes: Vec<Option<FaultMode>> =
            builtin_domains().iter().map(|d| a.mode(d.host)).collect();
        assert!(modes.iter().any(|m| matches!(m, Some(FaultMode::HardDown))));
        assert!(modes
            .iter()
            .any(|m| matches!(m, Some(FaultMode::Outage { .. }))));
        assert!(modes
            .iter()
            .any(|m| matches!(m, Some(FaultMode::Transient { .. }))));
        assert!(modes.iter().any(Option::is_none), "some hosts stay healthy");
        assert!(a.len() < builtin_domains().len());
    }

    #[test]
    fn corrupt_stream_is_deterministic_and_rotates_kinds() {
        let a = corrupt_delta_stream(&small_config(), 4, 5);
        let b = corrupt_delta_stream(&small_config(), 4, 5);
        assert_eq!(a.feeds.len(), 4);
        for (fa, fb) in a.feeds.iter().zip(&b.feeds) {
            assert_eq!(fa.json, fb.json);
            assert_eq!(fa.corruption, fb.corruption);
            assert_eq!(fa.quarantined_ids, fb.quarantined_ids);
            assert_eq!(fa.admitted_ids, fb.admitted_ids);
        }
        let mut kinds: Vec<FeedCorruption> = a.feeds.iter().map(|f| f.corruption).collect();
        kinds.sort_by_key(|k| *k as usize);
        kinds.dedup();
        assert_eq!(kinds.len(), 4, "four feeds must cover all four kinds");
    }

    #[test]
    fn ground_truth_matches_payload_shape() {
        let fs = corrupt_delta_stream(&small_config(), 4, 9);
        for (cf, feed) in fs.feeds.iter().zip(&fs.stream.feeds) {
            let feed_ids = feed.document.items.len();
            match cf.corruption {
                FeedCorruption::Clean => {
                    let doc = parse_feed_json(&cf.json).expect("clean feed parses");
                    assert!(cf.quarantined_ids.is_empty());
                    assert_eq!(cf.admitted_ids.len(), feed_ids);
                    assert!(!cf.poisoned);
                    assert!(doc.items.iter().all(|i| item_to_entry(i).is_ok()));
                }
                FeedCorruption::TruncatedJson => {
                    assert!(cf.poisoned);
                    assert!(parse_feed_json(&cf.json).is_err(), "truncation must break");
                    assert!(cf.admitted_ids.is_empty());
                }
                FeedCorruption::ConflictingDuplicates => {
                    let doc = parse_feed_json(&cf.json).expect("dup feed still parses");
                    assert!(doc.items.len() > feed_ids, "copies were appended");
                    assert!(!cf.quarantined_ids.is_empty());
                    assert_eq!(
                        cf.admitted_ids.len() + cf.quarantined_ids.len(),
                        feed_ids,
                        "every original id is admitted or quarantined"
                    );
                }
                FeedCorruption::SchemaDrift => {
                    let doc = parse_feed_json(&cf.json).expect("drifted feed still parses");
                    let broken = doc
                        .items
                        .iter()
                        .filter(|i| item_to_entry(i).is_err())
                        .count();
                    assert_eq!(broken, cf.quarantined_ids.len(), "each drifted item breaks");
                    assert_eq!(cf.admitted_ids.len() + broken, feed_ids);
                }
            }
            assert!(cf.quarantined_ids.windows(2).all(|w| w[0] < w[1]));
            assert!(cf.admitted_ids.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
