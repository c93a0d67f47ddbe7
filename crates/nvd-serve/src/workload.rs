//! Deterministic synthetic query workloads.
//!
//! The NVD-users study motivates the traffic shape: most requests are
//! lookups of a *popular* minority of CVEs (newly published, widely
//! deployed software), watchlist sweeps arrive in bursts (a scanner walks
//! its inventory vendor by vendor), and dashboards mix range scans with
//! histogram polls. [`generate_workload`] reproduces that mix as a pure
//! function of `(database, profile, seed)`:
//!
//! * **zipf-distributed point lookups** over a seed-shuffled popularity
//!   ranking of the CVE ids (so popularity is uncorrelated with id order),
//!   with a configurable miss rate probing absent ids;
//! * **bursty vendor/product scans** — each watch query repeats for a
//!   geometrically distributed burst length;
//! * **mixed range/histogram traffic** — patch windows of random width and
//!   placement, severity histograms (half of them windowed), CWE
//!   histograms.
//!
//! The generator is sequential over one `StdRng` stream, so a seed pins
//! the exact query sequence at any scale — the determinism suite asserts
//! seed stability, and perfbench and the tests replay identical workloads
//! through both engines.

use nvd_model::prelude::{CveId, Database, Date, ProductName, VendorName};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::query::Query;

/// Traffic-mix knobs for [`generate_workload`].
///
/// Category weights are relative (they need not sum to 1); each query
/// draws its category from the normalised weights.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Total queries to emit.
    pub queries: usize,
    /// Zipf exponent for point-lookup popularity (≈1.1 matches web-style
    /// skew; higher concentrates traffic further).
    pub zipf_exponent: f64,
    /// Fraction of point lookups probing ids absent from the database.
    pub miss_rate: f64,
    /// Relative weight of point lookups.
    pub point_weight: f64,
    /// Relative weight of vendor-watch bursts.
    pub vendor_weight: f64,
    /// Relative weight of product-watch bursts.
    pub product_weight: f64,
    /// Relative weight of patch-window range scans.
    pub window_weight: f64,
    /// Relative weight of histogram polls.
    pub histogram_weight: f64,
    /// Mean geometric burst length for watch queries.
    pub mean_burst: f64,
    /// Maximum patch-window width in days.
    pub max_window_days: i32,
}

impl WorkloadProfile {
    /// The interactive shape: almost all traffic is point lookups.
    pub fn point_heavy(queries: usize) -> Self {
        Self {
            queries,
            zipf_exponent: 1.1,
            miss_rate: 0.05,
            point_weight: 0.96,
            vendor_weight: 0.04,
            product_weight: 0.0,
            window_weight: 0.0,
            histogram_weight: 0.0,
            mean_burst: 4.0,
            max_window_days: 90,
        }
    }

    /// The dashboard/scanner shape: watch bursts, range scans and
    /// histogram polls alongside the lookup stream.
    pub fn mixed(queries: usize) -> Self {
        Self {
            queries,
            zipf_exponent: 1.1,
            miss_rate: 0.05,
            point_weight: 0.55,
            vendor_weight: 0.20,
            product_weight: 0.10,
            window_weight: 0.10,
            histogram_weight: 0.05,
            mean_burst: 8.0,
            max_window_days: 180,
        }
    }
}

/// Inverse-CDF zipf sampler over ranks `0..n`.
#[derive(Debug)]
struct Zipf {
    /// Cumulative unnormalised weights; `cum[r]` closes rank `r`.
    cum: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Self {
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cum.push(total);
        }
        Self { cum }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cum.last().expect("zipf over empty domain");
        let u: f64 = rng.gen_range(0.0..total);
        self.cum
            .partition_point(|&c| c <= u)
            .min(self.cum.len() - 1)
    }
}

/// Generates the full query sequence for `(db, profile, seed)`.
///
/// Returns an empty workload for an empty database (there is nothing
/// meaningful to ask).
pub fn generate_workload(db: &Database, profile: &WorkloadProfile, seed: u64) -> Vec<Query> {
    if db.is_empty() || profile.queries == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);

    // Popularity ranking: a seeded shuffle of the id universe, so rank 0
    // (the hottest CVE) is unrelated to numeric id order.
    let mut by_popularity: Vec<CveId> = db.iter().map(|e| e.id).collect();
    by_popularity.shuffle(&mut rng);
    let zipf = Zipf::new(by_popularity.len(), profile.zipf_exponent);

    let vendors: Vec<VendorName> = db.vendor_set().into_iter().cloned().collect();
    let products: Vec<ProductName> = db.product_set().into_iter().cloned().collect();

    let (mut min_day, mut max_day) = (i32::MAX, i32::MIN);
    for entry in db.iter() {
        let day = entry.published.day_number();
        min_day = min_day.min(day);
        max_day = max_day.max(day);
    }

    let weights = [
        profile.point_weight,
        if vendors.is_empty() {
            0.0
        } else {
            profile.vendor_weight
        },
        if products.is_empty() {
            0.0
        } else {
            profile.product_weight
        },
        profile.window_weight,
        profile.histogram_weight,
    ];
    let total_weight: f64 = weights.iter().sum();
    assert!(
        total_weight > 0.0,
        "workload profile has no positive weight"
    );
    let burst_continue = (1.0 - 1.0 / profile.mean_burst.max(1.0)).clamp(0.0, 0.99);

    let mut queries = Vec::with_capacity(profile.queries);
    while queries.len() < profile.queries {
        let mut pick: f64 = rng.gen_range(0.0..total_weight);
        let mut category = 0usize;
        for (c, &w) in weights.iter().enumerate() {
            if pick < w {
                category = c;
                break;
            }
            pick -= w;
        }
        match category {
            0 => {
                let id = if rng.gen_bool(profile.miss_rate) {
                    // An id shaped like the corpus but guaranteed absent:
                    // NVD sequences never reach the 9-million range.
                    let year = db.iter().next().expect("non-empty").id.year();
                    CveId::new(year, 9_000_000 + rng.gen_range(0..1_000_000u32))
                } else {
                    by_popularity[zipf.sample(&mut rng)]
                };
                queries.push(Query::PointLookup(id));
            }
            1 | 2 => {
                // One watch target, repeated for a geometric burst.
                loop {
                    let query = if category == 1 {
                        Query::VendorWatch(vendors[rng.gen_range(0..vendors.len())].clone())
                    } else {
                        Query::ProductWatch(products[rng.gen_range(0..products.len())].clone())
                    };
                    queries.push(query);
                    if queries.len() >= profile.queries || !rng.gen_bool(burst_continue) {
                        break;
                    }
                }
            }
            3 => {
                let width = rng.gen_range(7..=profile.max_window_days.max(7));
                let start = rng.gen_range(min_day..=max_day);
                queries.push(Query::PatchWindow {
                    since: Date::from_day_number(start),
                    until: Date::from_day_number((start + width).min(max_day)),
                });
            }
            _ => {
                if rng.gen_bool(0.4) {
                    queries.push(Query::CweHistogram);
                } else {
                    let window = if rng.gen_bool(0.5) {
                        let width = rng.gen_range(7..=profile.max_window_days.max(7));
                        let start = rng.gen_range(min_day..=max_day);
                        Some((
                            Date::from_day_number(start),
                            Date::from_day_number((start + width).min(max_day)),
                        ))
                    } else {
                        None
                    };
                    queries.push(Query::SeverityHistogram { window });
                }
            }
        }
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::prelude::{CpeName, CveEntry};

    fn tiny_db() -> Database {
        let mut db = Database::new();
        for i in 1..=40u32 {
            let mut e = CveEntry::new(
                format!("CVE-2015-{i:04}").parse().unwrap(),
                Date::from_day_number(Date::from_ymd(2015, 1, 1).unwrap().day_number() + i as i32),
            );
            e.affected
                .push(CpeName::application(format!("vendor{}", i % 5), "tool"));
            db.push(e);
        }
        db
    }

    #[test]
    fn exact_length_and_seed_stability() {
        let db = tiny_db();
        let profile = WorkloadProfile::mixed(500);
        let a = generate_workload(&db, &profile, 99);
        let b = generate_workload(&db, &profile, 99);
        assert_eq!(a.len(), 500);
        assert_eq!(a, b, "same seed must reproduce the workload");
        let c = generate_workload(&db, &profile, 100);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn point_heavy_is_mostly_lookups() {
        let db = tiny_db();
        let queries = generate_workload(&db, &WorkloadProfile::point_heavy(1000), 7);
        let points = queries
            .iter()
            .filter(|q| matches!(q, Query::PointLookup(_)))
            .count();
        assert!(points > 850, "expected ≫85% lookups, got {points}/1000");
    }

    #[test]
    fn zipf_concentrates_traffic() {
        let db = tiny_db();
        let queries = generate_workload(&db, &WorkloadProfile::point_heavy(2000), 21);
        let mut counts = std::collections::BTreeMap::<CveId, usize>::new();
        for q in &queries {
            if let Query::PointLookup(id) = q {
                *counts.entry(*id).or_default() += 1;
            }
        }
        let mut tallies: Vec<usize> = counts.values().copied().collect();
        tallies.sort_unstable_by(|a, b| b.cmp(a));
        let top = tallies[0];
        assert!(
            top * 4 > tallies.iter().sum::<usize>() / 2,
            "hottest id should dominate: top={top}, total={}",
            tallies.iter().sum::<usize>()
        );
    }

    #[test]
    fn empty_database_yields_empty_workload() {
        let db = Database::new();
        assert!(generate_workload(&db, &WorkloadProfile::mixed(100), 1).is_empty());
    }
}
