//! Frozen pre-blocking replicas of the §4.2 candidate sweeps: the test
//! oracle for the blocked engine in `nvd_clean::names`.
//!
//! These are behavioural copies of the `BTreeSet`/per-vendor-`BTreeMap`
//! sweeps `nvd-clean` shipped before the blocked engine. They share no
//! code with it beyond the public candidate types and text primitives, so
//! the equality tests in `determinism.rs` pin the blocked sweeps to the
//! historical candidate lists however the engine evolves.

use std::collections::{BTreeMap, BTreeSet};

use nvd_clean::names::text::{
    abbreviation, is_strict_prefix_pair, longest_common_substring_len, name_components,
    strip_specials,
};
use nvd_clean::names::{NameMapping, ProductCandidate, ProductHeuristic, VendorCandidate};
use nvd_model::prelude::{Database, ProductName, VendorName};
use nvd_tests::levenshtein;

/// The pre-blocking vendor sweep: proposals accumulate in a
/// `BTreeSet<(&VendorName, &VendorName)>` and annotation recomputes every
/// derived key per pair.
pub fn find_vendor_candidates_legacy(db: &Database) -> Vec<VendorCandidate> {
    let vendors: Vec<&VendorName> = db.vendor_set().into_iter().collect();
    let products_by_vendor = db.products_by_vendor();
    let empty = BTreeSet::new();

    let mut proposed: BTreeSet<(&VendorName, &VendorName)> = BTreeSet::new();

    // Block 1: identical strip-specials form.
    let mut by_norm: BTreeMap<String, Vec<&VendorName>> = BTreeMap::new();
    for v in &vendors {
        by_norm
            .entry(strip_specials(v.as_str()))
            .or_default()
            .push(v);
    }
    for group in by_norm.values() {
        pair_group(group, &mut proposed);
    }

    // Block 2: abbreviation collisions (lms ↔ lan_management_system).
    let mut by_abbrev: BTreeMap<String, Vec<&VendorName>> = BTreeMap::new();
    for v in &vendors {
        if let Some(a) = abbreviation(v.as_str()) {
            if a.len() >= 2 {
                by_abbrev.entry(a).or_default().push(v);
            }
        }
    }
    let vendor_lookup: BTreeSet<&str> = vendors.iter().map(|v| v.as_str()).collect();
    for (abbrev, group) in &by_abbrev {
        if vendor_lookup.contains(abbrev.as_str()) {
            let short = vendors
                .iter()
                .find(|v| v.as_str() == abbrev.as_str())
                .expect("present in lookup");
            for long in group {
                order_and_insert(short, long, &mut proposed);
            }
        }
    }

    // Block 3: shared product names.
    let mut vendors_by_product: BTreeMap<&str, Vec<&VendorName>> = BTreeMap::new();
    for (vendor, products) in &products_by_vendor {
        for p in products {
            vendors_by_product
                .entry(p.as_str())
                .or_default()
                .push(vendor);
        }
    }
    for group in vendors_by_product.values() {
        if group.len() <= 50 {
            pair_group(group, &mut proposed);
        }
    }

    // Block 4: vendor name equals a product name of another vendor.
    for v in &vendors {
        if let Some(owners) = vendors_by_product.get(v.as_str()) {
            for owner in owners {
                if owner.as_str() != v.as_str() {
                    order_and_insert(v, owner, &mut proposed);
                }
            }
        }
    }

    // Block 5: prefix neighbourhoods in sorted order.
    for (i, v) in vendors.iter().enumerate() {
        for w in vendors.iter().skip(i + 1) {
            if !w.as_str().starts_with(v.as_str()) {
                break;
            }
            order_and_insert(v, w, &mut proposed);
        }
    }

    // Block 6: near-duplicate spellings via shared 4-prefix blocks.
    let mut by_prefix4: BTreeMap<String, Vec<&VendorName>> = BTreeMap::new();
    for v in &vendors {
        let key: String = v.as_str().chars().take(4).collect();
        by_prefix4.entry(key).or_default().push(v);
    }
    for group in by_prefix4.values() {
        if group.len() > 200 {
            continue;
        }
        for (i, a) in group.iter().enumerate() {
            for b in group.iter().skip(i + 1) {
                if levenshtein(a.as_str(), b.as_str()) <= 2 {
                    order_and_insert(a, b, &mut proposed);
                }
            }
        }
    }
    // Misspellings dropping an early character: block on last-4 too.
    let mut by_suffix4: BTreeMap<String, Vec<&VendorName>> = BTreeMap::new();
    for v in &vendors {
        let s = v.as_str();
        let key: String = s.chars().rev().take(4).collect();
        by_suffix4.entry(key).or_default().push(v);
    }
    for group in by_suffix4.values() {
        if group.len() > 200 {
            continue;
        }
        for (i, a) in group.iter().enumerate() {
            for b in group.iter().skip(i + 1) {
                if levenshtein(a.as_str(), b.as_str()) <= 2 {
                    order_and_insert(a, b, &mut proposed);
                }
            }
        }
    }

    // Annotate every proposed pair with the Table 2 signals.
    proposed
        .into_iter()
        .map(|(a, b)| {
            let pa = products_by_vendor.get(a).unwrap_or(&empty);
            let pb = products_by_vendor.get(b).unwrap_or(&empty);
            let matching_products = pa.intersection(pb).count();
            let product_as_vendor = pa.iter().any(|p| p.as_str() == b.as_str())
                || pb.iter().any(|p| p.as_str() == a.as_str());
            let abbrev = abbreviation(a.as_str()).as_deref() == Some(b.as_str())
                || abbreviation(b.as_str()).as_deref() == Some(a.as_str());
            VendorCandidate {
                a: a.clone(),
                b: b.clone(),
                tokens_identical: strip_specials(a.as_str()) == strip_specials(b.as_str()),
                matching_products,
                prefix: is_strict_prefix_pair(a.as_str(), b.as_str()),
                product_as_vendor,
                abbreviation: abbrev,
                lcs_len: longest_common_substring_len(a.as_str(), b.as_str()),
            }
        })
        .collect()
}

fn pair_group<'a>(
    group: &[&'a VendorName],
    proposed: &mut BTreeSet<(&'a VendorName, &'a VendorName)>,
) {
    for (i, a) in group.iter().enumerate() {
        for b in group.iter().skip(i + 1) {
            order_and_insert(a, b, proposed);
        }
    }
}

fn order_and_insert<'a>(
    a: &'a VendorName,
    b: &'a VendorName,
    proposed: &mut BTreeSet<(&'a VendorName, &'a VendorName)>,
) {
    if a == b {
        return;
    }
    let (x, y) = if a <= b { (a, b) } else { (b, a) };
    proposed.insert((x, y));
}

/// The pre-blocking product sweep: clone-per-proposal accumulation into one
/// flat `Vec`, then a global sort + dedup over full `ProductCandidate`s.
pub fn find_product_candidates_legacy(
    db: &Database,
    mapping: &NameMapping,
) -> Vec<ProductCandidate> {
    // Products per consolidated vendor.
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

    let mut out = Vec::new();
    for (vendor, names) in &products {
        let names: Vec<&ProductName> = names.iter().collect();

        // Heuristic 1: identical token sequences.
        let mut by_tokens: BTreeMap<Vec<String>, Vec<&ProductName>> = BTreeMap::new();
        for p in &names {
            by_tokens
                .entry(name_components(p.as_str()))
                .or_default()
                .push(p);
        }
        for group in by_tokens.values() {
            for (i, a) in group.iter().enumerate() {
                for b in group.iter().skip(i + 1) {
                    push_ordered(&mut out, vendor, a, b, ProductHeuristic::TokenEquivalent);
                }
            }
        }

        // Heuristic 2: abbreviation of token initials.
        let name_set: BTreeSet<&str> = names.iter().map(|p| p.as_str()).collect();
        for p in &names {
            if let Some(abbrev) = abbreviation(p.as_str()) {
                if abbrev.len() >= 2 && abbrev != p.as_str() && name_set.contains(abbrev.as_str()) {
                    let other = names
                        .iter()
                        .find(|q| q.as_str() == abbrev.as_str())
                        .expect("present in set");
                    push_ordered(&mut out, vendor, p, other, ProductHeuristic::Abbreviation);
                }
            }
        }

        // Heuristic 3: edit distance 1 (typos), guarded against digit-only
        // differences.
        if names.len() <= 600 {
            for (i, a) in names.iter().enumerate() {
                for b in names.iter().skip(i + 1) {
                    if a.as_str().len().abs_diff(b.as_str().len()) > 1 {
                        continue;
                    }
                    if differs_only_in_digit(a.as_str(), b.as_str()) {
                        continue;
                    }
                    if levenshtein(a.as_str(), b.as_str()) == 1 {
                        push_ordered(&mut out, vendor, a, b, ProductHeuristic::EditDistance);
                    }
                }
            }
        }
    }
    out.sort_by(|x, y| {
        (&x.vendor, &x.a, &x.b, x.heuristic).cmp(&(&y.vendor, &y.a, &y.b, y.heuristic))
    });
    out.dedup_by(|x, y| x.vendor == y.vendor && x.a == y.a && x.b == y.b);
    out
}

fn differs_only_in_digit(a: &str, b: &str) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.bytes()
        .zip(b.bytes())
        .any(|(x, y)| x != y && x.is_ascii_digit() && y.is_ascii_digit())
}

fn push_ordered(
    out: &mut Vec<ProductCandidate>,
    vendor: &VendorName,
    a: &ProductName,
    b: &ProductName,
    heuristic: ProductHeuristic,
) {
    if a == b {
        return;
    }
    let (x, y) = if a <= b { (a, b) } else { (b, a) };
    out.push(ProductCandidate {
        vendor: vendor.clone(),
        a: x.clone(),
        b: y.clone(),
        heuristic,
    });
}
