//! The vendor/product name universe, with ground-truth-labelled
//! inconsistency injection.
//!
//! §4.2 of the paper measures ≈19K distinct vendor names of which ≈10% are
//! impacted by naming inconsistencies (≈1.8K names consolidating under 871),
//! and ≈46.7K product names of which ≈6% are impacted (3.1K names across 700
//! vendors). The inconsistencies follow recognisable patterns (Table 2 and
//! Appendix A.4): special-character variants, misspellings, abbreviations,
//! prefix extensions, products used as vendor names, developers/acquisitions
//! listed alongside the company. This module builds a calibrated universe
//! with exactly those patterns injected, remembering the truth so detection
//! quality is measurable.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use nvd_model::prelude::{ProductName, VendorName};
use rand::rngs::StdRng;
use rand::Rng;

use crate::words::{GENERIC_PRODUCTS, PRODUCT_HEADS, PRODUCT_TAILS, VENDOR_HEADS, VENDOR_TAILS};

/// How an injected alias relates to its canonical vendor name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AliasPattern {
    /// Identical up to special characters (`avast` / `avast!`).
    SpecialChars,
    /// A human typo (`microsoft` / `microsft`).
    Misspelling,
    /// An abbreviation (`lan_management_system` / `lms`).
    Abbreviation,
    /// One name is a strict prefix of the other (`lynx` / `lynx_project`).
    PrefixExtension,
    /// A product of the vendor used as a vendor name (`microsoft` /
    /// `windows`).
    ProductAsVendor,
    /// An unrelated-looking name that shares the vendor's products — e.g. a
    /// developer or pre-acquisition company (`nginx` / `igor_sysoev`).
    SharedProductOnly,
}

impl AliasPattern {
    /// All patterns, for iteration in reports.
    pub const ALL: [AliasPattern; 6] = [
        AliasPattern::SpecialChars,
        AliasPattern::Misspelling,
        AliasPattern::Abbreviation,
        AliasPattern::PrefixExtension,
        AliasPattern::ProductAsVendor,
        AliasPattern::SharedProductOnly,
    ];
}

/// One injected vendor-name inconsistency.
#[derive(Debug, Clone, PartialEq)]
pub struct VendorAlias {
    /// The inconsistent name as it appears in some CVE entries.
    pub alias: VendorName,
    /// The name the paper's method should consolidate it to.
    pub canonical: VendorName,
    /// The naming pattern this alias was built with.
    pub pattern: AliasPattern,
    /// Probability that a CVE of this vendor is recorded under the alias.
    pub share: f64,
}

/// One injected product-name inconsistency (within a canonical vendor).
#[derive(Debug, Clone, PartialEq)]
pub struct ProductAlias {
    /// The canonical vendor owning the product.
    pub vendor: VendorName,
    /// The inconsistent product name.
    pub alias: ProductName,
    /// The canonical product name.
    pub canonical: ProductName,
    /// Probability that a CVE of this product is recorded under the alias.
    pub share: f64,
}

/// One canonical vendor: name, CVE popularity, and its product list with
/// per-product popularity weights.
#[derive(Debug, Clone, PartialEq)]
pub struct VendorEntry {
    /// Canonical vendor name.
    pub name: VendorName,
    /// Relative share of CVEs attributed to this vendor.
    pub weight: f64,
    /// Products with sampling weights (descending popularity).
    pub products: Vec<(ProductName, f64)>,
}

/// The complete name universe plus injected inconsistencies.
#[derive(Debug, Clone, PartialEq)]
pub struct NameUniverse {
    /// Canonical vendors, heaviest first.
    pub vendors: Vec<VendorEntry>,
    /// Injected vendor aliases (the ground truth for §4.2 vendor cleaning).
    pub vendor_aliases: Vec<VendorAlias>,
    /// Injected product aliases (the ground truth for §4.2 product
    /// cleaning).
    pub product_aliases: Vec<ProductAlias>,
    cumulative_weights: Vec<f64>,
}

/// Anchor vendors: name, CVE-share weight (Table 11 left), product-count
/// share (Table 11 right), both in arbitrary units re-normalised later.
const ANCHORS: &[(&str, f64, usize)] = &[
    ("microsoft", 6.16, 49),
    ("oracle", 5.27, 55),
    ("apple", 4.26, 28),
    ("ibm", 3.88, 93),
    ("google", 3.67, 25),
    ("cisco", 3.43, 182),
    ("adobe", 2.68, 30),
    ("linux", 2.12, 8),
    ("debian", 2.12, 12),
    ("redhat", 2.01, 40),
    ("hp", 1.80, 307),
    ("mozilla", 1.50, 12),
    ("sun", 1.30, 25),
    ("apache", 1.25, 38),
    ("novell", 0.95, 22),
    ("php", 0.90, 6),
    ("wordpress", 0.85, 5),
    ("ubuntu", 0.80, 8),
    ("suse", 0.70, 12),
    ("joomla", 0.65, 4),
    ("drupal", 0.60, 5),
    ("fedoraproject", 0.55, 6),
    ("huawei", 0.55, 70),
    ("intel", 0.50, 72),
    ("symantec", 0.48, 25),
    ("vmware", 0.45, 18),
    ("siemens", 0.45, 51),
    ("qualcomm", 0.42, 30),
    ("lenovo", 0.40, 58),
    ("axis", 0.38, 81),
    ("mcafee", 0.35, 18),
    ("schneider_electric", 0.32, 40),
    ("nvidia", 0.30, 12),
    ("trendmicro", 0.28, 14),
    ("freebsd", 0.28, 3),
    ("kaspersky", 0.25, 10),
    ("openbsd", 0.24, 3),
    ("openssl", 0.22, 2),
    ("avg", 0.20, 4),
    ("avast", 0.20, 4),
    ("bea", 0.18, 6),
    ("netbsd", 0.15, 2),
    ("tor", 0.15, 3),
    ("nginx", 0.14, 2),
    ("aol", 0.12, 5),
    ("quickheal", 0.10, 5),
    ("lan_management_system", 0.05, 2),
    ("lynx", 0.04, 1),
    ("nativesolutions", 0.03, 2),
    ("provos", 0.03, 2),
];

/// Anchor aliases reproducing the paper's cited examples (§4.2, Table 16,
/// Appendix A.4). `(alias, canonical, pattern, share)`.
const ANCHOR_ALIASES: &[(&str, &str, AliasPattern, f64)] = &[
    ("microsft", "microsoft", AliasPattern::Misspelling, 0.012),
    ("windows", "microsoft", AliasPattern::ProductAsVendor, 0.015),
    ("avast!", "avast", AliasPattern::SpecialChars, 0.25),
    ("bea_systems", "bea", AliasPattern::PrefixExtension, 0.076),
    ("lynx_project", "lynx", AliasPattern::PrefixExtension, 0.3),
    (
        "lms",
        "lan_management_system",
        AliasPattern::Abbreviation,
        0.3,
    ),
    (
        "chneider_electric",
        "schneider_electric",
        AliasPattern::Misspelling,
        0.05,
    ),
    ("kernel", "linux", AliasPattern::ProductAsVendor, 0.02),
    (
        "openssl_project",
        "openssl",
        AliasPattern::PrefixExtension,
        0.3,
    ),
    ("torproject", "tor", AliasPattern::PrefixExtension, 0.35),
    ("quick_heal", "quickheal", AliasPattern::SpecialChars, 0.3),
    ("cat", "quickheal", AliasPattern::SharedProductOnly, 0.15),
    ("igor_sysoev", "nginx", AliasPattern::SharedProductOnly, 0.2),
    (
        "neilsprovos",
        "provos",
        AliasPattern::SharedProductOnly,
        0.3,
    ),
    ("icq", "aol", AliasPattern::ProductAsVendor, 0.2),
];

/// Anchor products guaranteed to exist, `(vendor, products…)`; the first
/// product is the most popular.
const ANCHOR_PRODUCTS: &[(&str, &[&str])] = &[
    (
        "microsoft",
        &[
            "windows",
            "internet_explorer",
            "office",
            "exchange_server",
            "sql_server",
            "sharepoint",
            "edge",
            "dotnet_framework",
        ],
    ),
    (
        "oracle",
        &[
            "database_server",
            "java",
            "mysql",
            "weblogic",
            "solaris",
            "peoplesoft",
        ],
    ),
    (
        "apple",
        &[
            "mac_os_x",
            "iphone_os",
            "safari",
            "itunes",
            "quicktime",
            "watchos",
        ],
    ),
    (
        "ibm",
        &["websphere", "db2", "aix", "domino", "tivoli", "rational"],
    ),
    ("google", &["chrome", "android", "v8", "chrome_os"]),
    (
        "cisco",
        &[
            "ios",
            "asa",
            "unified_communications_manager",
            "webex",
            "ucs-e160dp-m1_firmware",
            "ucs-e140dp-m1_firmware",
        ],
    ),
    (
        "adobe",
        &[
            "flash_player",
            "acrobat",
            "reader",
            "coldfusion",
            "photoshop",
        ],
    ),
    ("linux", &["kernel", "util-linux"]),
    ("debian", &["debian_linux", "apt", "dpkg"]),
    ("redhat", &["enterprise_linux", "openshift", "jboss"]),
    (
        "hp",
        &[
            "openview",
            "laserjet_firmware",
            "integrated_lights-out",
            "systems_insight_manager",
        ],
    ),
    ("mozilla", &["firefox", "thunderbird", "seamonkey"]),
    ("wordpress", &["wordpress"]),
    ("avg", &["antivirus", "internet_security"]),
    ("avast", &["antivirus", "premier"]),
    ("bea", &["weblogic_server", "tuxedo"]),
    ("tor", &["tor", "tor_browser"]),
    ("nginx", &["nginx"]),
    ("aol", &["icq", "aim", "aol_desktop"]),
    (
        "quickheal",
        &["antivirus", "total_security", "internet_security"],
    ),
    ("lan_management_system", &["lms_client", "lms_server"]),
    ("lynx", &["lynx"]),
    ("nativesolutions", &["the_banner_engine"]),
    ("provos", &["systrace", "honeyd"]),
    ("openssl", &["openssl"]),
    (
        "schneider_electric",
        &["modicon_m340_firmware", "unity_pro", "somachine"],
    ),
];

/// Anchor product aliases from the paper (`(vendor, alias, canonical)`).
const ANCHOR_PRODUCT_ALIASES: &[(&str, &str, &str, f64)] = &[
    ("avg", "anti-virus", "antivirus", 0.3),
    ("microsoft", "internet-explorer", "internet_explorer", 0.08),
    ("microsoft", "ie", "internet_explorer", 0.04),
    (
        "nativesolutions",
        "tbe_banner_engine",
        "the_banner_engine",
        0.3,
    ),
];

/// Calibration targets, expressed at scale 1.0 (the paper's snapshot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NameTargets {
    /// Distinct canonical vendor names (paper: 18,991 incl. aliases).
    pub vendors: usize,
    /// Distinct product names across vendors (paper: 46,685).
    pub products: usize,
    /// Fraction of canonical vendors given at least one alias (paper: 871
    /// of ≈18K ≈ 4.6%).
    pub vendor_alias_rate: f64,
    /// Fraction of vendors whose products get aliases (paper: 700 vendors).
    pub product_alias_vendor_rate: f64,
}

impl Default for NameTargets {
    fn default() -> Self {
        Self {
            vendors: 18_991,
            products: 46_685,
            vendor_alias_rate: 0.046,
            product_alias_vendor_rate: 0.037,
        }
    }
}

impl NameUniverse {
    /// Generates a universe scaled down from the paper's snapshot.
    ///
    /// `scale` multiplies the vendor/product targets; anchors are always
    /// present so the paper's concrete examples exist at any scale.
    pub fn generate(rng: &mut StdRng, scale: f64, targets: &NameTargets) -> Self {
        let vendor_target = ((targets.vendors as f64 * scale) as usize).max(ANCHORS.len() + 20);
        let product_target = ((targets.products as f64 * scale) as usize).max(vendor_target * 2);

        let mut used_names: BTreeSet<String> =
            ANCHORS.iter().map(|(n, _, _)| (*n).to_owned()).collect();
        for (alias, _, _, _) in ANCHOR_ALIASES {
            used_names.insert((*alias).to_owned());
        }

        // --- canonical vendors -------------------------------------------
        let mut vendors: Vec<VendorEntry> = Vec::with_capacity(vendor_target);
        let anchor_products: BTreeMap<&str, &[&str]> =
            ANCHOR_PRODUCTS.iter().map(|(v, p)| (*v, *p)).collect();
        let anchor_product_count: usize = ANCHORS.iter().map(|(_, _, c)| c).sum();
        // Anchors own a fixed share of the product universe; scale their
        // per-vendor counts proportionally, but never below the named list.
        let anchor_product_budget =
            (product_target / 5).max(anchor_product_count.min(product_target / 2));
        for (name, weight, product_count_hint) in ANCHORS {
            let named: &[&str] = anchor_products.get(name).copied().unwrap_or(&[]);
            let scaled =
                (*product_count_hint * anchor_product_budget) / anchor_product_count.max(1);
            let count = scaled.max(named.len()).max(1);
            let products = build_products(rng, named, count, &mut BTreeSet::new());
            vendors.push(VendorEntry {
                name: VendorName::new(name),
                weight: *weight,
                products,
            });
        }

        // Synthetic tail vendors with Zipf-decaying weights.
        let mut salt = 0usize;
        while vendors.len() < vendor_target {
            let head = VENDOR_HEADS[rng.gen_range(0..VENDOR_HEADS.len())];
            let tail = VENDOR_TAILS[rng.gen_range(0..VENDOR_TAILS.len())];
            let base = match rng.gen_range(0..3) {
                0 => format!("{head}{tail}"),
                1 => format!("{head}_{tail}"),
                _ => {
                    salt += 1;
                    format!("{head}{tail}{salt}")
                }
            };
            if !used_names.insert(base.clone()) {
                continue;
            }
            let rank = vendors.len() as f64;
            let weight = 8.0 / (rank + 10.0).powf(1.05);
            // Most tail vendors have a couple of products; a few have many.
            let n_products = 1 + (rng.gen::<f64>().powi(3) * 9.0) as usize;
            let products = build_products(rng, &[], n_products, &mut BTreeSet::new());
            vendors.push(VendorEntry {
                name: VendorName::new(&base),
                weight,
                products,
            });
        }

        // Pad the product universe towards its target by giving random tail
        // vendors extra products.
        let mut total_products: usize = vendors.iter().map(|v| v.products.len()).sum();
        while total_products < product_target {
            let idx = rng.gen_range(ANCHORS.len().min(vendors.len() - 1)..vendors.len());
            let mut names: BTreeSet<String> = vendors[idx]
                .products
                .iter()
                .map(|(p, _)| p.as_str().to_owned())
                .collect();
            let extra = build_products(rng, &[], 1, &mut names);
            vendors[idx].products.extend(extra);
            total_products += 1;
        }

        // Sprinkle generic product names over unrelated vendors so the
        // shared-product heuristic sees honest false candidates.
        for generic in GENERIC_PRODUCTS {
            for _ in 0..3 {
                let idx = rng.gen_range(0..vendors.len());
                let p = ProductName::new(generic);
                if !vendors[idx].products.iter().any(|(q, _)| *q == p) {
                    vendors[idx].products.push((p, 0.3));
                }
            }
        }

        // --- vendor aliases ------------------------------------------------
        let mut vendor_aliases: Vec<VendorAlias> = ANCHOR_ALIASES
            .iter()
            .map(|(alias, canonical, pattern, share)| VendorAlias {
                alias: VendorName::new(alias),
                canonical: VendorName::new(canonical),
                pattern: *pattern,
                share: *share,
            })
            .collect();

        let alias_target = ((vendor_target as f64) * targets.vendor_alias_rate) as usize;
        let mut aliased: BTreeSet<String> = vendor_aliases
            .iter()
            .map(|a| a.canonical.as_str().to_owned())
            .collect();
        let mut attempts = 0;
        while aliased.len() < alias_target && attempts < alias_target * 20 {
            attempts += 1;
            let idx = rng.gen_range(ANCHORS.len().min(vendors.len() - 1)..vendors.len());
            let canonical = vendors[idx].name.clone();
            if aliased.contains(canonical.as_str()) {
                continue;
            }
            let pattern = sample_pattern(rng);
            let Some(alias) = synthesize_alias(rng, &vendors[idx], pattern, &used_names) else {
                continue;
            };
            used_names.insert(alias.clone());
            aliased.insert(canonical.as_str().to_owned());
            vendor_aliases.push(VendorAlias {
                alias: VendorName::new(&alias),
                canonical,
                pattern,
                share: rng.gen_range(0.1..0.45),
            });
        }

        // --- product aliases -----------------------------------------------
        let mut product_aliases: Vec<ProductAlias> = ANCHOR_PRODUCT_ALIASES
            .iter()
            .map(|(vendor, alias, canonical, share)| ProductAlias {
                vendor: VendorName::new(vendor),
                alias: ProductName::new(alias),
                canonical: ProductName::new(canonical),
                share: *share,
            })
            .collect();
        let pa_vendor_target =
            ((vendor_target as f64) * targets.product_alias_vendor_rate) as usize;
        let mut pa_vendors: BTreeSet<String> = product_aliases
            .iter()
            .map(|a| a.vendor.as_str().to_owned())
            .collect();
        attempts = 0;
        while pa_vendors.len() < pa_vendor_target && attempts < pa_vendor_target * 20 {
            attempts += 1;
            let idx = rng.gen_range(0..vendors.len());
            let vendor = vendors[idx].name.clone();
            if pa_vendors.contains(vendor.as_str()) {
                continue;
            }
            let n = 1 + rng.gen_range(0..4usize);
            let mut made = 0;
            for _ in 0..n {
                if vendors[idx].products.is_empty() {
                    break;
                }
                let p_idx = rng.gen_range(0..vendors[idx].products.len());
                let canonical = vendors[idx].products[p_idx].0.clone();
                let Some(alias) = synthesize_product_alias(rng, canonical.as_str()) else {
                    continue;
                };
                if vendors[idx]
                    .products
                    .iter()
                    .any(|(p, _)| p.as_str() == alias)
                {
                    continue;
                }
                product_aliases.push(ProductAlias {
                    vendor: vendor.clone(),
                    alias: ProductName::new(&alias),
                    canonical,
                    share: rng.gen_range(0.1..0.4),
                });
                made += 1;
            }
            if made > 0 {
                pa_vendors.insert(vendor.as_str().to_owned());
            }
        }

        let mut cumulative_weights = Vec::with_capacity(vendors.len());
        let mut acc = 0.0;
        for v in &vendors {
            acc += v.weight;
            cumulative_weights.push(acc);
        }

        Self {
            vendors,
            vendor_aliases,
            product_aliases,
            cumulative_weights,
        }
    }

    /// Samples a canonical vendor index, weighted by CVE popularity.
    pub fn sample_vendor(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative_weights.last().expect("non-empty universe");
        let x = rng.gen::<f64>() * total;
        match self
            .cumulative_weights
            .binary_search_by(|w| w.partial_cmp(&x).unwrap())
        {
            Ok(i) | Err(i) => i.min(self.vendors.len() - 1),
        }
    }

    /// Samples a product of the given vendor (popularity-weighted).
    pub fn sample_product(&self, rng: &mut StdRng, vendor_idx: usize) -> ProductName {
        let products = &self.vendors[vendor_idx].products;
        let total: f64 = products.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen::<f64>() * total;
        for (p, w) in products {
            x -= w;
            if x <= 0.0 {
                return p.clone();
            }
        }
        products.last().expect("vendor has products").0.clone()
    }

    /// Ground-truth vendor alias → canonical mapping.
    pub fn vendor_alias_map(&self) -> BTreeMap<VendorName, VendorName> {
        self.vendor_aliases
            .iter()
            .map(|a| (a.alias.clone(), a.canonical.clone()))
            .collect()
    }

    /// Ground-truth (canonical vendor, alias product) → canonical product.
    pub fn product_alias_map(&self) -> BTreeMap<(VendorName, ProductName), ProductName> {
        self.product_aliases
            .iter()
            .map(|a| ((a.vendor.clone(), a.alias.clone()), a.canonical.clone()))
            .collect()
    }

    /// Total distinct product names across canonical vendors.
    pub fn product_count(&self) -> usize {
        self.vendors.iter().map(|v| v.products.len()).sum()
    }
}

fn sample_pattern(rng: &mut StdRng) -> AliasPattern {
    let x: f64 = rng.gen();
    if x < 0.25 {
        AliasPattern::SpecialChars
    } else if x < 0.45 {
        AliasPattern::Misspelling
    } else if x < 0.55 {
        AliasPattern::Abbreviation
    } else if x < 0.80 {
        AliasPattern::PrefixExtension
    } else if x < 0.90 {
        AliasPattern::ProductAsVendor
    } else {
        AliasPattern::SharedProductOnly
    }
}

fn synthesize_alias(
    rng: &mut StdRng,
    vendor: &VendorEntry,
    pattern: AliasPattern,
    used: &BTreeSet<String>,
) -> Option<String> {
    let name = vendor.name.as_str();
    let candidate = match pattern {
        AliasPattern::SpecialChars => {
            if name.contains('_') {
                name.replace('_', "")
            } else if rng.gen() {
                format!("{name}!")
            } else if name.len() >= 4 {
                let mid = name.len() / 2;
                format!("{}_{}", &name[..mid], &name[mid..])
            } else {
                format!("{name}-inc")
            }
        }
        AliasPattern::Misspelling => {
            if name.len() < 4 {
                return None;
            }
            // Drop one interior character.
            let pos = rng.gen_range(1..name.len() - 1);
            if !name.is_char_boundary(pos) || !name.is_char_boundary(pos + 1) {
                return None;
            }
            format!("{}{}", &name[..pos], &name[pos + 1..])
        }
        AliasPattern::Abbreviation => {
            let parts: Vec<&str> = name.split('_').filter(|p| !p.is_empty()).collect();
            if parts.len() < 2 {
                return None;
            }
            parts
                .iter()
                .filter_map(|p| p.chars().next())
                .collect::<String>()
        }
        AliasPattern::PrefixExtension => {
            let suffix =
                ["_project", "_inc", "_software", "_team", "_org"][rng.gen_range(0..5usize)];
            format!("{name}{suffix}")
        }
        AliasPattern::ProductAsVendor => {
            let (p, _) = &vendor.products[rng.gen_range(0..vendor.products.len())];
            p.as_str().to_owned()
        }
        AliasPattern::SharedProductOnly => {
            // A developer-persona name unrelated to the company name.
            let head = VENDOR_HEADS[rng.gen_range(0..VENDOR_HEADS.len())];
            let tail = VENDOR_TAILS[rng.gen_range(0..VENDOR_TAILS.len())];
            format!("{head}_{tail}_dev")
        }
    };
    if candidate == name || candidate.len() < 2 || used.contains(&candidate) {
        None
    } else {
        Some(candidate)
    }
}

fn synthesize_product_alias(rng: &mut StdRng, name: &str) -> Option<String> {
    match rng.gen_range(0..3) {
        // Separator variant: internet_explorer → internet-explorer.
        0 => {
            if name.contains('_') {
                Some(name.replace('_', "-"))
            } else if name.contains('-') {
                Some(name.replace('-', "_"))
            } else {
                None
            }
        }
        // Abbreviation: internet_explorer → ie.
        1 => {
            let parts: Vec<&str> = name.split(['_', '-']).filter(|p| !p.is_empty()).collect();
            if parts.len() < 2 {
                return None;
            }
            Some(parts.iter().filter_map(|p| p.chars().next()).collect())
        }
        // Typo: drop an interior character.
        _ => {
            if name.len() < 5 {
                return None;
            }
            let pos = rng.gen_range(1..name.len() - 1);
            if !name.is_char_boundary(pos) || !name.is_char_boundary(pos + 1) {
                return None;
            }
            Some(format!("{}{}", &name[..pos], &name[pos + 1..]))
        }
    }
}

fn build_products(
    rng: &mut StdRng,
    named: &[&str],
    count: usize,
    used: &mut BTreeSet<String>,
) -> Vec<(ProductName, f64)> {
    let mut out: Vec<(ProductName, f64)> = Vec::with_capacity(count);
    for (i, n) in named.iter().enumerate() {
        used.insert((*n).to_owned());
        out.push((ProductName::new(n), 4.0 / (i as f64 + 1.0)));
    }
    let mut salt = 0;
    while out.len() < count {
        let head = PRODUCT_HEADS[rng.gen_range(0..PRODUCT_HEADS.len())];
        let tail = PRODUCT_TAILS[rng.gen_range(0..PRODUCT_TAILS.len())];
        let name = match rng.gen_range(0..3) {
            0 => format!("{head}_{tail}"),
            1 => format!("{head}{tail}"),
            _ => {
                salt += 1;
                format!("{head}_{tail}_{salt}")
            }
        };
        if used.insert(name.clone()) {
            let rank = out.len() as f64;
            out.push((ProductName::new(&name), 2.0 / (rank + 2.0)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_universe() -> NameUniverse {
        let mut rng = StdRng::seed_from_u64(42);
        NameUniverse::generate(&mut rng, 0.02, &NameTargets::default())
    }

    #[test]
    fn anchors_always_present() {
        let u = small_universe();
        for (name, _, _) in ANCHORS {
            assert!(
                u.vendors.iter().any(|v| v.name.as_str() == *name),
                "missing anchor {name}"
            );
        }
    }

    #[test]
    fn paper_examples_injected() {
        let u = small_universe();
        let map = u.vendor_alias_map();
        assert_eq!(
            map.get(&VendorName::new("microsft")).map(|v| v.as_str()),
            Some("microsoft")
        );
        assert_eq!(
            map.get(&VendorName::new("bea_systems")).map(|v| v.as_str()),
            Some("bea")
        );
        let pmap = u.product_alias_map();
        assert_eq!(
            pmap.get(&(VendorName::new("avg"), ProductName::new("anti-virus")))
                .map(|p| p.as_str()),
            Some("antivirus")
        );
    }

    #[test]
    fn vendor_target_scales() {
        let u = small_universe();
        let expect = (18_991.0 * 0.02) as usize;
        assert!(
            (u.vendors.len() as i64 - expect as i64).unsigned_abs() < 40,
            "got {} vendors, want ≈{expect}",
            u.vendors.len()
        );
    }

    #[test]
    fn alias_rate_near_target() {
        let u = small_universe();
        let canonicals: BTreeSet<&str> = u
            .vendor_aliases
            .iter()
            .map(|a| a.canonical.as_str())
            .collect();
        let rate = canonicals.len() as f64 / u.vendors.len() as f64;
        assert!(
            (0.02..0.10).contains(&rate),
            "aliased-canonical rate {rate}"
        );
    }

    #[test]
    fn aliases_are_distinct_from_canonicals() {
        let u = small_universe();
        let canon: BTreeSet<&str> = u.vendors.iter().map(|v| v.name.as_str()).collect();
        for a in &u.vendor_aliases {
            if a.pattern != AliasPattern::ProductAsVendor {
                assert_ne!(a.alias, a.canonical);
            }
            assert!(
                canon.contains(a.canonical.as_str()),
                "canonical {} missing",
                a.canonical
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let t = NameTargets::default();
        let u1 = NameUniverse::generate(&mut r1, 0.01, &t);
        let u2 = NameUniverse::generate(&mut r2, 0.01, &t);
        assert_eq!(u1, u2);
    }

    #[test]
    fn sampling_respects_weights_roughly() {
        let u = small_universe();
        let mut rng = StdRng::seed_from_u64(9);
        let mut microsoft = 0;
        let n = 20_000;
        for _ in 0..n {
            let idx = u.sample_vendor(&mut rng);
            if u.vendors[idx].name.as_str() == "microsoft" {
                microsoft += 1;
            }
        }
        let share = microsoft as f64 / n as f64;
        // microsoft weight 6.16 over total ≈ a few percent.
        assert!(share > 0.01 && share < 0.25, "microsoft share {share}");
    }

    #[test]
    fn product_alias_patterns_parse() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            synthesize_product_alias(&mut rng, "internet_explorer"),
            Some("internet-explorer".to_owned())
        );
    }

    #[test]
    fn abbreviation_of_multiword_vendor() {
        let mut rng = StdRng::seed_from_u64(3);
        let entry = VendorEntry {
            name: VendorName::new("lan_management_system"),
            weight: 1.0,
            products: vec![(ProductName::new("client"), 1.0)],
        };
        let a = synthesize_alias(
            &mut rng,
            &entry,
            AliasPattern::Abbreviation,
            &BTreeSet::new(),
        );
        assert_eq!(a, Some("lms".to_owned()));
    }
}
