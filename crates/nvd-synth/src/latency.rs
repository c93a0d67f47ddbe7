//! Per-domain latency calibration for the simulated crawl.
//!
//! The crawl scheduler in [`webarchive::scheduler`] only earns its keep if
//! the simulated web has real skew to hide: a serial crawl of uniformly
//! fast hosts parallelises trivially, but the paper's reference domains mix
//! snappy CDN-backed advisory pages with slow mailing-list archives and the
//! occasional congested outlier. This module samples one [`LatencyModel`]
//! per corpus seed with exactly that shape.
//!
//! Sampling runs on its own derived RNG stream (`LATENCY_STREAM`), so
//! adding latency to a corpus never perturbs the entries, references or
//! ground truth the seed generated before latency existed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webarchive::{builtin_domains, DomainCategory, LatencyModel, LatencyProfile};

/// Stream tag for latency sampling (outside the drafting-chunk index range,
/// so the stream never collides with a corpus chunk's).
const LATENCY_STREAM: u64 = 0x6c61_7465_6e63_7921;

/// Share of domains that are congested outliers (service time ×6).
const CONGESTED_SHARE: f64 = 0.12;

/// Samples the per-domain latency model for a corpus seed.
///
/// Service times are log-uniform per category — advisories ≈2–50 ms,
/// vulnerability databases ≈4–100 ms, bug trackers / mail archives
/// ≈8–400 ms — with jitter at a third of base and politeness gaps of
/// 1–30 ms; a `CONGESTED_SHARE` fraction of hosts is 6× slower. All in
/// virtual ticks (≈1 µs): the scheduler's clock jumps, it never sleeps.
pub fn sample_latency_model(seed: u64) -> LatencyModel {
    let mut rng = StdRng::seed_from_u64(minipar::derive_seed(seed, LATENCY_STREAM));
    let mut model = LatencyModel::default();
    for d in builtin_domains() {
        let (floor, span): (f64, f64) = match d.category {
            DomainCategory::Advisory => (2_000.0, 25.0),
            DomainCategory::VulnDatabase => (4_000.0, 25.0),
            DomainCategory::BugTracker => (8_000.0, 50.0),
        };
        let mut base = (floor * span.powf(rng.gen::<f64>())) as u64;
        if rng.gen::<f64>() < CONGESTED_SHARE {
            base *= 6;
        }
        let jitter = base / 3;
        let politeness = 1_000 + rng.gen_range(0..29_000u64);
        model.set(d.host, LatencyProfile::new(base, jitter, politeness));
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_is_deterministic_per_seed() {
        let a = sample_latency_model(42);
        let b = sample_latency_model(42);
        assert_eq!(a, b, "equal seeds must give equal models");
        assert_ne!(a, sample_latency_model(43), "seeds must matter");
    }

    #[test]
    fn every_registry_host_is_profiled() {
        let m = sample_latency_model(7);
        assert_eq!(m.len(), builtin_domains().len());
    }

    #[test]
    fn profiles_have_real_skew() {
        let m = sample_latency_model(7);
        let bases: Vec<u64> = builtin_domains()
            .iter()
            .map(|d| m.profile(d.host).base_ticks)
            .collect();
        let min = *bases.iter().min().unwrap();
        let max = *bases.iter().max().unwrap();
        assert!(min >= 2_000, "floor holds: {min}");
        assert!(
            max >= min * 10,
            "scheduler needs skew to hide: min {min}, max {max}"
        );
        for d in builtin_domains() {
            let p = m.profile(d.host);
            assert!(p.politeness_ticks >= 1_000);
            assert_eq!(p.jitter_ticks, p.base_ticks / 3);
        }
    }
}
