//! Vendor-name candidate detection (§4.2, Table 2).
//!
//! Three heuristics flag likely matching vendor-name pairs:
//!
//! 1. the names **share characters in common** — identical up to special
//!    characters, misspellings, abbreviations, or substrings;
//! 2. **a product name is used as a vendor name**;
//! 3. the two vendors **share a product name**.
//!
//! Pairs are annotated with the paper's Table 2 signals: token-identity,
//! number of matching products (`#MP`), strict-prefix relation (`Pref`),
//! product-as-vendor (`PaV`), and the longest-common-substring length.
//!
//! The sweep runs on the blocked engine: the vendor universe is interned
//! into a [`NameTable`], every blocking pass materialises its candidate
//! groups as sorted-id work units, pair proposal fans the blocks over
//! `minipar` (merged in ascending block order, then `sort` + `dedup` on id
//! pairs — which reproduces the historical `BTreeSet` ordering exactly,
//! because ids are assigned in name order), and signal annotation is a
//! second `par_map` over the deduped proposal list. Output is bit-identical
//! to the serial sweep at every `NVD_JOBS`; the pre-blocking
//! implementation survives as the integration-test oracle that pins this
//! (`tests/tests/names_oracle`).
//!
//! There is one sweep, [`find_vendor_candidates_cached`]: its
//! [`VendorSweepCache`] lets the incremental pipeline skip per-block and
//! per-pair work a delta left untouched, and [`find_vendor_candidates`] is
//! the same sweep over a fresh cache.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use nvd_model::prelude::{Database, ProductName, VendorName};

use super::table::NameTable;
use super::text::{
    abbreviation, is_strict_prefix_pair, levenshtein_at_most, longest_common_substring_len,
    strip_specials,
};

/// A flagged vendor-name pair with its Table 2 signals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VendorCandidate {
    /// Lexicographically smaller name.
    pub a: VendorName,
    /// Lexicographically larger name.
    pub b: VendorName,
    /// Identical after removing special characters.
    pub tokens_identical: bool,
    /// Number of product names the two vendors share (`#MP`).
    pub matching_products: usize,
    /// One name is a strict prefix of the other (`Pref`).
    pub prefix: bool,
    /// One name equals a product of the other (`PaV`).
    pub product_as_vendor: bool,
    /// One name is the initials-abbreviation of the other.
    pub abbreviation: bool,
    /// Longest common substring length between the names.
    pub lcs_len: usize,
}

impl VendorCandidate {
    /// Whether the longest-substring signal clears the paper's ≥3 bar.
    pub fn lcs_at_least_3(&self) -> bool {
        self.lcs_len >= 3
    }
}

/// Shared-product groups larger than this are skipped: huge groups (e.g. a
/// generic product name) propose quadratically many junk pairs.
const SHARED_PRODUCT_GROUP_CAP: usize = 50;

/// Edit-distance blocks larger than this are skipped for the same reason.
const EDIT_GROUP_CAP: usize = 200;

/// Edit-distance budget for the near-duplicate spelling blocks.
const EDIT_MAX: usize = 2;

/// How many prefix-scan start ids each work unit covers.
const PREFIX_SCAN_CHUNK: u32 = 256;

/// One blocking work unit: a group of ids that may contain matching pairs,
/// plus the rule for proposing pairs from it. Ids inside a block ascend, so
/// every proposal is already an ordered `(smaller, larger)` pair.
#[derive(Debug)]
enum Block {
    /// Every unordered pair in the group is proposed (identical normalised
    /// form; shared product name).
    AllPairs(Vec<u32>),
    /// The centre pairs with every other member (abbreviation collisions;
    /// product-as-vendor).
    Star { center: u32, others: Vec<u32> },
    /// Forward prefix scan over the ascending id range `[start, end)`: each
    /// start id pairs with every follower it strictly prefixes.
    PrefixScan { start: u32, end: u32 },
}

impl Block {
    /// Appends this block's proposals to `out` as ordered id pairs.
    fn propose(&self, table: &NameTable<'_, VendorName>, out: &mut Vec<(u32, u32)>) {
        match self {
            Block::AllPairs(ids) => {
                for (i, &a) in ids.iter().enumerate() {
                    for &b in &ids[i + 1..] {
                        out.push((a, b));
                    }
                }
            }
            Block::Star { center, others } => {
                for &o in others {
                    if o != *center {
                        out.push((o.min(*center), o.max(*center)));
                    }
                }
            }
            Block::PrefixScan { start, end } => {
                let n = table.len() as u32;
                for i in *start..*end {
                    let prefix = table.name(i).as_str();
                    for j in i + 1..n {
                        if !table.name(j).as_str().starts_with(prefix) {
                            break;
                        }
                        out.push((i, j));
                    }
                }
            }
        }
    }
}

/// Appends the surviving pairs of one edit-distance block: every pair of
/// members within Levenshtein distance [`EDIT_MAX`].
fn edit_pairs_into(table: &NameTable<'_, VendorName>, ids: &[u32], out: &mut Vec<(u32, u32)>) {
    for (i, &a) in ids.iter().enumerate() {
        let sa = table.name(a).as_str();
        for &b in &ids[i + 1..] {
            if levenshtein_at_most(sa, table.name(b).as_str(), EDIT_MAX).is_some() {
                out.push((a, b));
            }
        }
    }
}

/// Finds all candidate vendor pairs in a database.
///
/// Blocking keeps this sub-quadratic: pairs are proposed from shared
/// normalised forms, shared abbreviations, shared products, vendor names
/// colliding with product names, prefix neighbourhoods in sorted order, and
/// near-duplicate spelling (edit distance ≤ 2 within a shared-trigram
/// block). Proposal and signal annotation each fan out over the `minipar`
/// pool; output is bit-identical at every `NVD_JOBS` setting.
///
/// This is [`find_vendor_candidates_cached`] over a fresh cache: a cold
/// sweep has nothing to reuse, so every vendor counts as clean.
pub fn find_vendor_candidates(db: &Database) -> Vec<VendorCandidate> {
    find_vendor_candidates_cached(db, &mut VendorSweepCache::default(), &BTreeSet::new())
}

/// Blocking passes 1–5 (everything except the edit-distance blocks, whose
/// survivors the sweep cache keeps per block).
fn standard_blocks(
    table: &NameTable<'_, VendorName>,
    products: &[&BTreeSet<&ProductName>],
    norms: &[String],
    abbrevs: &[Option<String>],
) -> Vec<Block> {
    let mut blocks: Vec<Block> = Vec::new();

    // Block 1: identical strip-specials form.
    let mut by_norm: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for (id, _) in table.enumerate() {
        by_norm
            .entry(norms[id as usize].as_str())
            .or_default()
            .push(id);
    }
    for group in by_norm.into_values() {
        if group.len() >= 2 {
            blocks.push(Block::AllPairs(group));
        }
    }

    // Block 2: abbreviation collisions (lms ↔ lan_management_system). The
    // short form resolves through the table's binary search instead of the
    // legacy O(n) scan per collision.
    let mut by_abbrev: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for (id, _) in table.enumerate() {
        if let Some(a) = abbrevs[id as usize].as_deref() {
            if a.len() >= 2 {
                by_abbrev.entry(a).or_default().push(id);
            }
        }
    }
    for (abbrev, group) in by_abbrev {
        if let Some(short) = table.id_of(abbrev) {
            blocks.push(Block::Star {
                center: short,
                others: group,
            });
        }
    }

    // Block 3: shared product names.
    let mut vendors_by_product: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
    for (id, _) in table.enumerate() {
        for p in products[id as usize] {
            vendors_by_product.entry(p.as_str()).or_default().push(id);
        }
    }
    for group in vendors_by_product.values() {
        if (2..=SHARED_PRODUCT_GROUP_CAP).contains(&group.len()) {
            blocks.push(Block::AllPairs(group.clone()));
        }
    }

    // Block 4: vendor name equals a product name of another vendor.
    for (id, v) in table.enumerate() {
        if let Some(owners) = vendors_by_product.get(v.as_str()) {
            let others: Vec<u32> = owners.iter().copied().filter(|&o| o != id).collect();
            if !others.is_empty() {
                blocks.push(Block::Star { center: id, others });
            }
        }
    }

    // Block 5: prefix neighbourhoods in sorted order, chunked into
    // fixed-size start ranges so the scan parallelises.
    let n = table.len() as u32;
    let mut start = 0u32;
    while start < n {
        let end = (start + PREFIX_SCAN_CHUNK).min(n);
        blocks.push(Block::PrefixScan { start, end });
        start = end;
    }

    blocks
}

/// Block 6: near-duplicate spellings via shared 4-prefix blocks, plus
/// last-4 blocks for misspellings dropping an early character
/// (microsoft/microsft share only a 1-prefix with the typo at position 1).
/// Each cap-filtered group is returned with a cache key (`p`/`s` pass tag
/// plus the block's character key) so the sweep cache can reuse survivors
/// when a block's member names are unchanged.
fn edit_groups(table: &NameTable<'_, VendorName>) -> Vec<(String, Vec<u32>)> {
    let mut by_prefix4: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    let mut by_suffix4: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    for (id, v) in table.enumerate() {
        by_prefix4
            .entry(v.as_str().chars().take(4).collect())
            .or_default()
            .push(id);
        by_suffix4
            .entry(v.as_str().chars().rev().take(4).collect())
            .or_default()
            .push(id);
    }
    let tag = |pass: char, key: &str| {
        let mut k = String::with_capacity(key.len() + 2);
        k.push(pass);
        k.push(':');
        k.push_str(key);
        k
    };
    by_prefix4
        .into_iter()
        .map(|(key, group)| (tag('p', &key), group))
        .chain(
            by_suffix4
                .into_iter()
                .map(|(key, group)| (tag('s', &key), group)),
        )
        .filter(|(_, group)| (2..=EDIT_GROUP_CAP).contains(&group.len()))
        .collect()
}

/// Annotates one proposed pair with its Table 2 signals. Pure in the two
/// names, their derived keys, and their product sets.
fn annotate_pair(
    table: &NameTable<'_, VendorName>,
    products: &[&BTreeSet<&ProductName>],
    norms: &[String],
    abbrevs: &[Option<String>],
    ia: u32,
    ib: u32,
) -> VendorCandidate {
    let (a, b) = (table.name(ia), table.name(ib));
    let pa = products[ia as usize];
    let pb = products[ib as usize];
    let matching_products = pa.intersection(pb).count();
    let product_as_vendor =
        pa.iter().any(|p| p.as_str() == b.as_str()) || pb.iter().any(|p| p.as_str() == a.as_str());
    let abbrev = abbrevs[ia as usize].as_deref() == Some(b.as_str())
        || abbrevs[ib as usize].as_deref() == Some(a.as_str());
    VendorCandidate {
        a: a.clone(),
        b: b.clone(),
        tokens_identical: norms[ia as usize] == norms[ib as usize],
        matching_products,
        prefix: is_strict_prefix_pair(a.as_str(), b.as_str()),
        product_as_vendor,
        abbreviation: abbrev,
        lcs_len: longest_common_substring_len(a.as_str(), b.as_str()),
    }
}

/// Carry-over state for [`find_vendor_candidates_cached`]: enough of the
/// previous sweep to skip the expensive parts whose inputs are unchanged.
///
/// Two layers, each keyed on **owned names** (ids shift as the universe
/// grows, names don't):
///
/// - per edit-distance block (keyed by pass + 4-char key): the member
///   names and the surviving pairs — a block whose member-name list is
///   unchanged reuses its survivors without re-running Levenshtein;
/// - per proposed pair: the annotated candidate — reused when neither
///   vendor is in the caller's dirty set (every other signal is a pure
///   function of the two names).
///
/// The cache never influences *which* pairs are proposed or how they are
/// ordered, only whether their per-pair work is recomputed, so a warm
/// [`find_vendor_candidates_cached`] is bit-identical to a cold one
/// ([`find_vendor_candidates`]) on the same database. Both layers hold only
/// the last sweep's keys: edit blocks that sweep did not form are evicted,
/// and the pair layer is replaced wholesale.
#[derive(Debug, Clone, Default)]
pub struct VendorSweepCache {
    edit_blocks: HashMap<String, EditBlockEntry>,
    pairs: HashMap<String, VendorCandidate>,
}

#[derive(Debug, Clone)]
struct EditBlockEntry {
    members: Vec<String>,
    survivors: Vec<(String, String)>,
}

/// Joint key for an ordered name pair (`\0` never occurs in a CPE name).
fn pair_key(a: &str, b: &str) -> String {
    let mut k = String::with_capacity(a.len() + b.len() + 1);
    k.push_str(a);
    k.push('\0');
    k.push_str(b);
    k
}

/// The vendor sweep with carry-over: recomputes the cheap near-linear
/// blocking passes, but reuses cached edit-distance survivors and pair
/// annotations wherever the delta left their inputs untouched. Output is
/// bit-identical to a cold-cache sweep at every `NVD_JOBS`.
///
/// `dirty` is the invalidation contract: it must contain every vendor
/// name whose CPE rows may have changed since `cache` was last refreshed
/// — for a delta, the vendors of every delivered entry's old **and** new
/// versions (which also covers vendors entering or leaving the universe).
/// A superset is always safe; an incomplete set can return stale product
/// signals.
pub fn find_vendor_candidates_cached(
    db: &Database,
    cache: &mut VendorSweepCache,
    dirty: &BTreeSet<VendorName>,
) -> Vec<VendorCandidate> {
    let products_by_vendor = db.products_by_vendor();
    let table = NameTable::from_sorted_iter(products_by_vendor.keys().copied());
    let products: Vec<&BTreeSet<&ProductName>> = products_by_vendor.values().collect();
    let norms: Vec<String> = table
        .names()
        .iter()
        .map(|v| strip_specials(v.as_str()))
        .collect();
    let abbrevs: Vec<Option<String>> = table
        .names()
        .iter()
        .map(|v| abbreviation(v.as_str()))
        .collect();

    // Cached pair annotations are only trusted when both sides are
    // outside the caller's dirty set.
    let dirty: Vec<bool> = table.enumerate().map(|(_, v)| dirty.contains(v)).collect();

    let std_blocks = standard_blocks(&table, &products, &norms, &abbrevs);

    // Edit blocks: reuse survivors when the member-name list is unchanged.
    let groups = edit_groups(&table);
    let mut reused: Vec<(u32, u32)> = Vec::new();
    let mut jobs: Vec<&(String, Vec<u32>)> = Vec::new();
    for block in &groups {
        let (key, group) = block;
        let hit = cache.edit_blocks.get(key).filter(|e| {
            e.members.len() == group.len()
                && e.members
                    .iter()
                    .zip(group)
                    .all(|(m, &id)| m == table.name(id).as_str())
        });
        match hit {
            Some(e) => {
                for (a, b) in &e.survivors {
                    let ia = table.id_of(a).expect("cached member still interned");
                    let ib = table.id_of(b).expect("cached member still interned");
                    reused.push((ia, ib));
                }
            }
            None => jobs.push(block),
        }
    }

    let per_block = minipar::par_map(&std_blocks, |b| {
        let mut out = Vec::new();
        b.propose(&table, &mut out);
        out
    });
    let computed: Vec<Vec<(u32, u32)>> = minipar::par_map(&jobs, |job| {
        let mut out = Vec::new();
        edit_pairs_into(&table, &job.1, &mut out);
        out
    });
    for (&(key, ids), survivors) in jobs.iter().zip(&computed) {
        cache.edit_blocks.insert(
            key.clone(),
            EditBlockEntry {
                members: ids
                    .iter()
                    .map(|&id| table.name(id).as_str().to_owned())
                    .collect(),
                survivors: survivors
                    .iter()
                    .map(|&(a, b)| {
                        (
                            table.name(a).as_str().to_owned(),
                            table.name(b).as_str().to_owned(),
                        )
                    })
                    .collect(),
            },
        );
    }
    let live: HashSet<&str> = groups.iter().map(|(key, _)| key.as_str()).collect();
    cache
        .edit_blocks
        .retain(|key, _| live.contains(key.as_str()));

    let mut pairs: Vec<(u32, u32)> = per_block
        .into_iter()
        .flatten()
        .chain(reused)
        .chain(computed.into_iter().flatten())
        .collect();
    pairs.sort_unstable();
    pairs.dedup();

    let annotated = minipar::par_map(&pairs, |&(ia, ib)| {
        if !dirty[ia as usize] && !dirty[ib as usize] {
            if let Some(c) = cache
                .pairs
                .get(&pair_key(table.name(ia).as_str(), table.name(ib).as_str()))
            {
                return c.clone();
            }
        }
        annotate_pair(&table, &products, &norms, &abbrevs, ia, ib)
    });

    // Refresh the carry-over for the next delta.
    cache.pairs = annotated
        .iter()
        .map(|c| (pair_key(c.a.as_str(), c.b.as_str()), c.clone()))
        .collect();
    annotated
}

/// The paper's Table 2 row structure: candidate/confirmed counts per
/// pattern, split by the LCS ≥ 3 signal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternBreakdown {
    /// `(possible, confirmed)` for token-identical pairs.
    pub tokens: (usize, usize),
    /// Per `#MP` bucket (0, 1, >1) with LCS ≥ 3.
    pub mp_lcs3: [(usize, usize); 3],
    /// Prefix pairs with LCS ≥ 3.
    pub pref_lcs3: (usize, usize),
    /// Product-as-vendor pairs with LCS ≥ 3.
    pub pav_lcs3: (usize, usize),
    /// Per `#MP` bucket (0, 1, >1) with LCS < 3.
    pub mp_lcs_short: [(usize, usize); 3],
    /// Prefix pairs with LCS < 3.
    pub pref_lcs_short: (usize, usize),
    /// Product-as-vendor pairs with LCS < 3.
    pub pav_lcs_short: (usize, usize),
}

impl PatternBreakdown {
    /// Tabulates candidates the way Table 2 does. `confirmed` flags one
    /// entry per candidate (same order).
    pub fn tabulate(candidates: &[VendorCandidate], confirmed: &[bool]) -> Self {
        assert_eq!(candidates.len(), confirmed.len(), "length mismatch");
        let mut out = Self::default();
        let add = |slot: &mut (usize, usize), ok: bool| {
            slot.0 += 1;
            if ok {
                slot.1 += 1;
            }
        };
        for (c, &ok) in candidates.iter().zip(confirmed) {
            if c.tokens_identical {
                add(&mut out.tokens, ok);
                continue;
            }
            let mp_bucket = match c.matching_products {
                0 => 0,
                1 => 1,
                _ => 2,
            };
            if c.lcs_at_least_3() {
                add(&mut out.mp_lcs3[mp_bucket], ok);
                if c.prefix {
                    add(&mut out.pref_lcs3, ok);
                }
                if c.product_as_vendor {
                    add(&mut out.pav_lcs3, ok);
                }
            } else {
                add(&mut out.mp_lcs_short[mp_bucket], ok);
                if c.prefix {
                    add(&mut out.pref_lcs_short, ok);
                }
                if c.product_as_vendor {
                    add(&mut out.pav_lcs_short, ok);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_model::prelude::*;

    fn db_with(cpes: &[(&str, &str)]) -> Database {
        let mut db = Database::new();
        for (i, (v, p)) in cpes.iter().enumerate() {
            let id: CveId = format!("CVE-2015-{:04}", i + 1).parse().unwrap();
            let mut e = CveEntry::new(id, "2015-01-01".parse().unwrap());
            e.affected.push(CpeName::application(*v, *p));
            db.push(e);
        }
        db
    }

    fn has_pair(cands: &[VendorCandidate], a: &str, b: &str) -> bool {
        cands.iter().any(|c| {
            (c.a.as_str() == a && c.b.as_str() == b) || (c.a.as_str() == b && c.b.as_str() == a)
        })
    }

    #[test]
    fn finds_special_character_variant() {
        let db = db_with(&[("avast", "antivirus"), ("avast!", "antivirus")]);
        let cands = find_vendor_candidates(&db);
        assert!(has_pair(&cands, "avast", "avast!"));
        let c = cands.iter().find(|c| c.a.as_str() == "avast").unwrap();
        assert!(c.tokens_identical);
        assert!(c.matching_products >= 1);
    }

    #[test]
    fn finds_misspelling() {
        let db = db_with(&[("microsoft", "windows"), ("microsft", "office")]);
        let cands = find_vendor_candidates(&db);
        assert!(has_pair(&cands, "microsft", "microsoft"));
    }

    #[test]
    fn finds_prefix_extension() {
        let db = db_with(&[("lynx", "lynx"), ("lynx_project", "browser")]);
        let cands = find_vendor_candidates(&db);
        let c = cands
            .iter()
            .find(|c| has_pair(std::slice::from_ref(c), "lynx", "lynx_project"))
            .expect("prefix pair found");
        assert!(c.prefix);
    }

    #[test]
    fn finds_abbreviation() {
        let db = db_with(&[
            ("lan_management_system", "lms_client"),
            ("lms", "lms_client"),
        ]);
        let cands = find_vendor_candidates(&db);
        let c = cands
            .iter()
            .find(|c| has_pair(std::slice::from_ref(c), "lms", "lan_management_system"))
            .expect("abbreviation pair found");
        assert!(c.abbreviation);
        // lms/lan_management_system share the product too.
        assert_eq!(c.matching_products, 1);
    }

    #[test]
    fn finds_product_as_vendor() {
        let db = db_with(&[("microsoft", "windows"), ("windows", "media_player")]);
        let cands = find_vendor_candidates(&db);
        let c = cands
            .iter()
            .find(|c| has_pair(std::slice::from_ref(c), "microsoft", "windows"))
            .expect("PaV pair found");
        assert!(c.product_as_vendor);
    }

    #[test]
    fn finds_shared_product_pair_with_unrelated_names() {
        let db = db_with(&[("nginx", "nginx"), ("igor_sysoev", "nginx")]);
        let cands = find_vendor_candidates(&db);
        let c = cands
            .iter()
            .find(|c| has_pair(std::slice::from_ref(c), "igor_sysoev", "nginx"))
            .expect("shared-product pair found");
        assert!(c.matching_products >= 1);
    }

    #[test]
    fn unrelated_vendors_not_flagged() {
        let db = db_with(&[("oracle", "database"), ("mozilla", "firefox")]);
        let cands = find_vendor_candidates(&db);
        assert!(!has_pair(&cands, "oracle", "mozilla"));
    }

    #[test]
    fn tabulation_buckets_match_counts() {
        let db = db_with(&[
            ("avast", "antivirus"),
            ("avast!", "antivirus"),
            ("lynx", "lynx"),
            ("lynx_project", "browser"),
        ]);
        let cands = find_vendor_candidates(&db);
        let confirmed: Vec<bool> = cands.iter().map(|_| true).collect();
        let t = PatternBreakdown::tabulate(&cands, &confirmed);
        let total = t.tokens.0
            + t.mp_lcs3.iter().map(|x| x.0).sum::<usize>()
            + t.mp_lcs_short.iter().map(|x| x.0).sum::<usize>();
        assert_eq!(total, cands.len());
    }

    #[test]
    fn cached_sweep_matches_uncached_across_deltas() {
        let mut db = db_with(&[
            ("avast", "antivirus"),
            ("avast!", "antivirus"),
            ("microsoft", "windows"),
            ("microsft", "office"),
            ("lynx", "lynx"),
            ("lynx_project", "browser"),
        ]);
        let mut cache = VendorSweepCache::default();
        let all: BTreeSet<VendorName> = db.vendor_set().into_iter().cloned().collect();
        assert_eq!(
            find_vendor_candidates_cached(&db, &mut cache, &all),
            find_vendor_candidates(&db),
            "cold cache diverged"
        );
        // A delta introducing one near-duplicate vendor: only it is dirty.
        let id: CveId = "CVE-2016-0001".parse().unwrap();
        let mut e = CveEntry::new(id, "2016-01-01".parse().unwrap());
        e.affected.push(CpeName::application("avst", "antivirus"));
        db.push(e);
        let dirty: BTreeSet<VendorName> = [VendorName::new("avst")].into_iter().collect();
        assert_eq!(
            find_vendor_candidates_cached(&db, &mut cache, &dirty),
            find_vendor_candidates(&db),
            "warm cache diverged after an insert"
        );
        // An empty delta: everything reused, still identical.
        assert_eq!(
            find_vendor_candidates_cached(&db, &mut cache, &BTreeSet::new()),
            find_vendor_candidates(&db),
            "warm cache diverged on an empty delta"
        );
    }

    #[test]
    fn cache_evicts_edit_blocks_the_sweep_no_longer_forms() {
        // microsoft/microsft form one edit block (shared prefix `micr`).
        // The same database with both vendors remapped to acme/acmee forms
        // one different block (`acme`): the cache must hold exactly it.
        let before = db_with(&[("microsoft", "windows"), ("microsft", "office")]);
        let mut cache = VendorSweepCache::default();
        let dirty: BTreeSet<VendorName> = before.vendor_set().into_iter().cloned().collect();
        find_vendor_candidates_cached(&before, &mut cache, &dirty);
        assert_eq!(cache.edit_blocks.keys().collect::<Vec<_>>(), ["p:micr"]);

        let after = db_with(&[("acme", "windows"), ("acmee", "office")]);
        let dirty: BTreeSet<VendorName> = dirty
            .into_iter()
            .chain(after.vendor_set().into_iter().cloned())
            .collect();
        let warm = find_vendor_candidates_cached(&after, &mut cache, &dirty);
        assert_eq!(warm, find_vendor_candidates(&after));
        assert_eq!(cache.edit_blocks.keys().collect::<Vec<_>>(), ["p:acme"]);
    }

    #[test]
    fn blocked_sweep_is_bit_identical_across_job_counts() {
        let db = db_with(&[
            ("avast", "antivirus"),
            ("avast!", "antivirus"),
            ("microsoft", "windows"),
            ("microsft", "office"),
            ("windows", "media_player"),
            ("lynx", "lynx"),
            ("lynx_project", "browser"),
        ]);
        let serial = minipar::with_jobs(1, || find_vendor_candidates(&db));
        let wide = minipar::with_jobs(4, || find_vendor_candidates(&db));
        assert_eq!(serial, wide);
    }
}
