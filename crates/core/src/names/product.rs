//! Product-name candidate detection (§4.2).
//!
//! After vendor consolidation, likely matching product names *under the
//! same vendor* are flagged by: (1) identical tokenisation after splitting
//! on white space and special characters (`internet-explorer` /
//! `internet_explorer`), (2) abbreviation by first characters
//! (`internet_explorer` / `ie`), and (3) small edit distance — human typos
//! such as `tbe_banner_engine` / `the_banner_engine`. The paper notes edit
//! distance needs verification because near-identical products can be
//! genuinely different (`ucs-e160dp-m1_firmware` / `ucs-e140dp-m1_firmware`),
//! which is why candidates carry their heuristic for the verifier.
//!
//! On the blocked engine each vendor is one block: its product set is
//! interned into a per-vendor [`NameTable`], the three heuristics propose
//! ordered id triples, and the per-vendor sweeps fan out over `minipar`,
//! concatenating in ascending vendor order. Because ids follow name order
//! and vendors are the outermost sort key, that concatenation reproduces
//! the historical global sort + dedup byte for byte (the old sweep
//! survives as the integration-test oracle that pins this, in
//! `tests/tests/names_oracle`).
//!
//! A vendor's sweep is pure in its consolidated product set, so there is
//! one sweep, [`find_product_candidates_cached`]: a [`ProductSweepCache`]
//! keeps each vendor's candidates and re-sweeps only vendors whose product
//! set changed. The incremental pipeline carries one cache across deltas;
//! [`find_product_candidates`] runs the same sweep over a fresh cache.
//! Which pairs the pipeline then accepts is [`confirm_product`].

use std::collections::{BTreeMap, BTreeSet};

use nvd_model::prelude::{Database, ProductName, VendorName};
use textkit::distance::levenshtein_at_most;
use textkit::tokenize::{abbreviation, name_components};

use super::mapping::NameMapping;
use super::table::NameTable;

/// Which heuristic proposed a product pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProductHeuristic {
    /// Same tokens once separators are normalised.
    TokenEquivalent,
    /// One name abbreviates the other's token initials.
    Abbreviation,
    /// Levenshtein distance 1 (suspected typo).
    EditDistance,
}

/// A flagged product-name pair under one (consolidated) vendor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductCandidate {
    /// The owning vendor (post vendor-consolidation).
    pub vendor: VendorName,
    /// Lexicographically smaller product name.
    pub a: ProductName,
    /// Lexicographically larger product name.
    pub b: ProductName,
    /// The proposing heuristic.
    pub heuristic: ProductHeuristic,
}

/// The §4.2 product-pair acceptance rule: token and abbreviation pairs are
/// reliable; edit-distance pairs need the verifier's scrutiny, which the
/// pipeline's stand-ins only provide for vendors — so token/abbreviation
/// pairs are accepted unconditionally and edit-distance pairs only when
/// both names have at least five characters, where a one-character
/// difference is plausibly a typo.
pub fn confirm_product(c: &ProductCandidate) -> bool {
    match c.heuristic {
        ProductHeuristic::TokenEquivalent | ProductHeuristic::Abbreviation => true,
        ProductHeuristic::EditDistance => c.a.as_str().len() >= 5 && c.b.as_str().len() >= 5,
    }
}

/// Digit-difference guard for the edit-distance heuristic: names that
/// differ in a digit are usually genuinely different models/versions
/// (the paper's cisco firmware example).
///
/// The comparison is positional — character `i` of `a` against character
/// `i` of `b` — which is only meaningful when the two byte streams align
/// one-to-one. The equal-length precondition below makes that explicit:
/// unequal lengths mean an insertion/deletion typo, where positional digit
/// comparison would be misaligned, so the guard never fires and the pair
/// stays eligible for flagging.
fn differs_only_in_digit(a: &str, b: &str) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.bytes()
        .zip(b.bytes())
        .any(|(x, y)| x != y && x.is_ascii_digit() && y.is_ascii_digit())
}

/// Vendors with more products than this skip the quadratic edit-distance
/// heuristic (per-vendor product counts are normally small).
const EDIT_SWEEP_CAP: usize = 600;

/// Finds candidate product pairs under each vendor after applying the
/// vendor mapping: [`find_product_candidates_cached`] over a fresh cache.
///
/// Each vendor's sweep is independent, so the per-vendor blocks fan out
/// over `minipar` and concatenate in ascending vendor order; output is
/// bit-identical at every `NVD_JOBS` setting.
pub fn find_product_candidates(db: &Database, mapping: &NameMapping) -> Vec<ProductCandidate> {
    find_product_candidates_cached(db, mapping, &mut ProductSweepCache::default())
}

/// Carry-over state for [`find_product_candidates_cached`]: per
/// consolidated vendor, the product set its sweep ran over and the
/// candidates that sweep produced. A vendor whose product set is unchanged
/// reuses its candidates, so a warm sweep is bit-identical to a cold one.
#[derive(Debug, Clone, Default)]
pub struct ProductSweepCache {
    vendors: BTreeMap<VendorName, (BTreeSet<ProductName>, Vec<ProductCandidate>)>,
}

/// The product sweep with per-vendor carry-over: rebuilds the consolidated
/// vendor → products map (the mapping may have changed since the cache was
/// filled), re-sweeps only vendors whose product set differs from the
/// cached one, and concatenates every vendor's candidates in ascending
/// vendor order. Output is bit-identical to a cold-cache sweep at every
/// `NVD_JOBS`.
pub fn find_product_candidates_cached(
    db: &Database,
    mapping: &NameMapping,
    cache: &mut ProductSweepCache,
) -> Vec<ProductCandidate> {
    let mut products: BTreeMap<VendorName, BTreeSet<ProductName>> = BTreeMap::new();
    for entry in db.iter() {
        for cpe in &entry.affected {
            let vendor = mapping.resolve_vendor(&cpe.vendor).clone();
            products
                .entry(vendor)
                .or_default()
                .insert(cpe.product.clone());
        }
    }

    let mut vendors: Vec<VendorName> = Vec::with_capacity(products.len());
    let mut stale: Vec<(VendorName, BTreeSet<ProductName>)> = Vec::new();
    for (vendor, names) in products {
        if cache
            .vendors
            .get(&vendor)
            .is_none_or(|(swept, _)| *swept != names)
        {
            stale.push((vendor.clone(), names));
        }
        vendors.push(vendor);
    }
    let swept = minipar::par_map(&stale, |(vendor, names)| sweep_vendor(vendor, names));
    for ((vendor, names), candidates) in stale.into_iter().zip(swept) {
        cache.vendors.insert(vendor, (names, candidates));
    }

    vendors
        .iter()
        .flat_map(|vendor| cache.vendors[vendor].1.iter().cloned())
        .collect()
}

/// The per-vendor block: interns the vendor's products and runs the three
/// heuristics over dense ids, returning candidates in `(a, b)` order with
/// the strongest heuristic kept on duplicates.
///
/// Pure in `(vendor, names)`, which is what lets [`ProductSweepCache`]
/// reuse it.
fn sweep_vendor(vendor: &VendorName, names: &BTreeSet<ProductName>) -> Vec<ProductCandidate> {
    let table = NameTable::from_sorted_iter(names.iter());
    let n = table.len() as u32;
    let mut pairs: Vec<(u32, u32, ProductHeuristic)> = Vec::new();

    // Heuristic 1: identical token sequences.
    let mut by_tokens: BTreeMap<Vec<String>, Vec<u32>> = BTreeMap::new();
    for (id, p) in table.enumerate() {
        by_tokens
            .entry(name_components(p.as_str()))
            .or_default()
            .push(id);
    }
    for group in by_tokens.into_values() {
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                pairs.push((a, b, ProductHeuristic::TokenEquivalent));
            }
        }
    }

    // Heuristic 2: abbreviation of token initials, resolved through the
    // table's binary search (the legacy sweep re-scanned the name list on
    // every hit).
    for (id, p) in table.enumerate() {
        if let Some(abbrev) = abbreviation(p.as_str()) {
            if abbrev.len() >= 2 && abbrev != p.as_str() {
                if let Some(other) = table.id_of(&abbrev) {
                    pairs.push((id.min(other), id.max(other), ProductHeuristic::Abbreviation));
                }
            }
        }
    }

    // Heuristic 3: edit distance 1 (typos), guarded against digit-only
    // differences; quadratic within the vendor, which is fine because
    // per-vendor product counts are small. The banded early-exit
    // Levenshtein stops scanning once the distance band exceeds 1.
    if table.len() <= EDIT_SWEEP_CAP {
        for a in 0..n {
            let sa = table.name(a).as_str();
            for b in a + 1..n {
                let sb = table.name(b).as_str();
                if sa.len().abs_diff(sb.len()) > 1 {
                    continue;
                }
                if differs_only_in_digit(sa, sb) {
                    continue;
                }
                if levenshtein_at_most(sa, sb, 1) == Some(1) {
                    pairs.push((a, b, ProductHeuristic::EditDistance));
                }
            }
        }
    }

    // A pair can be proposed by several heuristics; keep the strongest
    // (TokenEquivalent < Abbreviation < EditDistance by enum order — token
    // equivalence is the most reliable, so sort and dedupe keeps it).
    pairs.sort_unstable();
    pairs.dedup_by_key(|&mut (a, b, _)| (a, b));
    pairs
        .into_iter()
        .map(|(a, b, heuristic)| ProductCandidate {
            vendor: vendor.clone(),
            a: table.name(a).clone(),
            b: table.name(b).clone(),
            heuristic,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::prelude::*;

    fn db_with(cpes: &[(&str, &str)]) -> Database {
        let mut db = Database::new();
        for (i, (v, p)) in cpes.iter().enumerate() {
            let id: CveId = format!("CVE-2017-{:04}", i + 1).parse().unwrap();
            let mut e = CveEntry::new(id, "2017-01-01".parse().unwrap());
            e.affected.push(CpeName::application(*v, *p));
            db.push(e);
        }
        db
    }

    fn find(db: &Database) -> Vec<ProductCandidate> {
        find_product_candidates(db, &NameMapping::default())
    }

    #[test]
    fn finds_separator_variants() {
        let db = db_with(&[
            ("microsoft", "internet_explorer"),
            ("microsoft", "internet-explorer"),
        ]);
        let cands = find(&db);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].heuristic, ProductHeuristic::TokenEquivalent);
    }

    #[test]
    fn finds_abbreviation() {
        let db = db_with(&[("microsoft", "internet_explorer"), ("microsoft", "ie")]);
        let cands = find(&db);
        assert!(cands
            .iter()
            .any(|c| c.heuristic == ProductHeuristic::Abbreviation));
    }

    #[test]
    fn finds_typo_pair() {
        let db = db_with(&[
            ("nativesolutions", "tbe_banner_engine"),
            ("nativesolutions", "the_banner_engine"),
        ]);
        let cands = find(&db);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].heuristic, ProductHeuristic::EditDistance);
    }

    #[test]
    fn digit_difference_is_not_flagged() {
        // The paper's example: different cisco firmware models at edit
        // distance 1 must NOT be merged.
        let db = db_with(&[
            ("cisco", "ucs-e160dp-m1_firmware"),
            ("cisco", "ucs-e140dp-m1_firmware"),
        ]);
        let cands = find(&db);
        assert!(cands.is_empty(), "{cands:?}");
    }

    #[test]
    fn digit_guard_is_positional() {
        // The paper's cisco firmware regression: equal lengths, one digit
        // position differs → guard fires.
        assert!(differs_only_in_digit(
            "ucs-e160dp-m1_firmware",
            "ucs-e140dp-m1_firmware"
        ));
        // Letter typo at equal length → no digit difference.
        assert!(!differs_only_in_digit(
            "tbe_banner_engine",
            "the_banner_engine"
        ));
        // Unequal lengths (insertion typo) never trip the guard, even with
        // digits present — positional comparison would be misaligned.
        assert!(!differs_only_in_digit("router2", "router21"));
        assert!(!differs_only_in_digit("e160", "e1600"));
        // Identical names have no differing position at all.
        assert!(!differs_only_in_digit("e160", "e160"));
    }

    #[test]
    fn different_vendors_are_not_compared() {
        let db = db_with(&[("avg", "antivirus"), ("avast", "antivirus!")]);
        let cands = find(&db);
        assert!(cands.is_empty(), "{cands:?}");
    }

    #[test]
    fn vendor_mapping_brings_products_together() {
        // anti-virus is recorded under alias vendor "avg_technologies";
        // after vendor consolidation both product spellings are under avg.
        let db = db_with(&[("avg", "antivirus"), ("avg_technologies", "anti-virus")]);
        let mut mapping = NameMapping::default();
        mapping
            .vendor
            .insert(VendorName::new("avg_technologies"), VendorName::new("avg"));
        let cands = find_product_candidates(&db, &mapping);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].vendor.as_str(), "avg");
    }

    #[test]
    fn blocked_sweep_is_bit_identical_across_job_counts() {
        let db = db_with(&[
            ("microsoft", "internet_explorer"),
            ("microsoft", "internet-explorer"),
            ("microsoft", "ie"),
            ("nativesolutions", "tbe_banner_engine"),
            ("nativesolutions", "the_banner_engine"),
            ("avg", "antivirus"),
            ("avg", "anti-virus"),
        ]);
        let mapping = NameMapping::default();
        let serial = minipar::with_jobs(1, || find_product_candidates(&db, &mapping));
        let wide = minipar::with_jobs(4, || find_product_candidates(&db, &mapping));
        assert_eq!(serial, wide);
    }
}
