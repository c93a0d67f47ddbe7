//! The sharded index set behind the read path.
//!
//! [`ServeIndex::build`] loads a (cleaned) [`Database`] into:
//!
//! * **hash-sharded id shards** — each CVE id is routed to
//!   `fnv1a(id) % shard_count`; within a shard, entry indices are sorted by
//!   id, so a point lookup is one hash plus one binary search over `n/S`
//!   ids. Shard routing is a pure function of the id, never of insertion
//!   order, so any shard count serves identical answers;
//! * **owned vendor/product name universes with postings** — each name
//!   universe is a sorted `Vec` of owned names (dense id = position, in
//!   ascending name order, binary-search lookup); postings are per-name CVE
//!   lists sorted by id;
//! * **secondary indexes** — per-CWE and per-severity-band postings, plus
//!   one `(published, id)`-ordered permutation for patch-window range
//!   scans and windowed histograms.
//!
//! Construction fans over `minipar` (per-shard sorts, chunked postings
//! proposal) with the workspace's standing guarantee: the built index — and
//! therefore every query answer — is bit-identical at any `NVD_JOBS`.
//!
//! # Staying warm under delta feeds
//!
//! The index splits into an owned [`ServeIndexState`] and the borrowed
//! entry view. When a delta arrives, detach the state
//! ([`ServeIndex::into_state`]), push the delta's entries into the
//! database, surgically update the touched structures
//! ([`ServeIndexState::apply_delta`]), and re-attach
//! ([`ServeIndexState::attach`]). Every structure is a canonical sorted
//! function of the entry set — names whose last posting disappears are
//! evicted, new names are spliced in at their sorted position — so the
//! updated state is **bit-identical** (digest-equal) to a fresh build of
//! the updated database, which `tests/determinism.rs` enforces.

use std::collections::{BTreeMap, BTreeSet};

use nvd_clean::quality::{QualityIssue, QualityLedger, QualityScore, Resolution, ScoreAxis};
use nvd_model::prelude::{
    CveEntry, CveId, CweId, Database, Date, ProductName, Severity, VendorName,
};

use crate::query::{
    effective_severity, fnv1a, hash_cve_id, Query, QueryEngine, QueryResult, FNV_OFFSET,
};

/// Entries per work unit for the chunked postings-proposal passes. Small
/// enough to load-balance a skewed corpus, large enough that the inline
/// `jobs = 1` path pays no chunking overhead worth measuring.
const POSTING_CHUNK: usize = 256;

/// Every score axis, in [`ScoreAxis::code`] order: the row order of
/// `ServeIndexState::quality_deciles`.
const SCORE_AXES: [ScoreAxis; 4] = [
    ScoreAxis::Completeness,
    ScoreAxis::Consistency,
    ScoreAxis::Accuracy,
    ScoreAxis::Overall,
];

/// Why one warm update was rejected. Produced by
/// [`ServeIndexState::try_apply_delta`] *before* any structure is
/// touched: an `Err` leaves the state digest-identical to before the
/// call, so the caller can roll back by simply not committing its
/// database mutation and replay a corrected delta later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// A touched id is absent from the database.
    MissingEntry {
        /// The missing id.
        id: CveId,
    },
    /// A touched id is new to the index but its database entry is not at
    /// the append position — i.e. the database was not grown with
    /// `Database::push` semantics.
    MisplacedEntry {
        /// The misplaced id.
        id: CveId,
        /// The database index the entry was expected at.
        expected_index: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingEntry { id } => {
                write!(f, "serve update: touched id {id} absent from database")
            }
            Self::MisplacedEntry { id, expected_index } => write!(
                f,
                "serve update: new id {id} not at append position {expected_index}"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Everything the index derived from one entry — kept so a modified
/// redelivery can retire its old version's postings without re-reading the
/// (already replaced) old entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EntryProjection {
    published: Date,
    /// Distinct affected vendors, ascending.
    vendors: Vec<VendorName>,
    /// Distinct affected products, ascending.
    products: Vec<ProductName>,
    cwe: Option<CweId>,
    severity: Option<Severity>,
}

impl EntryProjection {
    fn of(entry: &CveEntry) -> Self {
        let mut vendors: Vec<VendorName> =
            entry.affected.iter().map(|c| c.vendor.clone()).collect();
        vendors.sort_unstable();
        vendors.dedup();
        let mut products: Vec<ProductName> =
            entry.affected.iter().map(|c| c.product.clone()).collect();
        products.sort_unstable();
        products.dedup();
        Self {
            published: entry.published,
            vendors,
            products,
            cwe: entry.effective_cwe().specific(),
            severity: effective_severity(entry),
        }
    }
}

/// The owned half of a [`ServeIndex`]: every shard, name universe, and
/// posting list, independent of the database's borrow — so it can outlive
/// a database mutation and absorb deltas in place via
/// [`ServeIndexState::apply_delta`].
#[derive(Debug, Clone)]
pub struct ServeIndexState {
    /// `ids[i]` is the id of database entry `i`, in insertion order.
    ids: Vec<CveId>,
    shard_count: usize,
    /// Per-shard entry indices, each sorted ascending by CVE id.
    id_shards: Vec<Vec<u32>>,
    /// Sorted owned vendor universe; dense vendor id = position.
    vendor_names: Vec<VendorName>,
    /// Per-vendor-id entry indices, sorted ascending by CVE id.
    vendor_postings: Vec<Vec<u32>>,
    /// Sorted owned product universe; dense product id = position.
    product_names: Vec<ProductName>,
    /// Per-product-id entry indices, sorted ascending by CVE id.
    product_postings: Vec<Vec<u32>>,
    /// Non-empty per-CWE postings, ascending by CWE id.
    cwe_postings: Vec<(CweId, Vec<u32>)>,
    /// Non-empty per-band postings, ascending by severity band.
    severity_postings: Vec<(Severity, Vec<u32>)>,
    /// All entry indices, sorted ascending by `(published, id)`.
    date_order: Vec<u32>,
    /// Per-entry projections, aligned with `ids`.
    projections: Vec<EntryProjection>,
    /// Per-CVE quality issues for served entries, attached via
    /// [`ServeIndexState::set_quality`]; ids absent here serve as
    /// issue-free (perfect score). Empty until a ledger is attached.
    ///
    /// Cost model: `set_quality` is the only writer, and it refreshes
    /// `quality_deciles` alongside, so a `QualityHistogram` query reads
    /// eleven counters instead of walking this map. `LinearScan` keeps
    /// the walk as the oracle.
    quality: BTreeMap<CveId, Vec<QualityIssue>>,
    /// Score-decile counts (buckets 0..=10) of the entries in `quality`,
    /// one row per axis in [`ScoreAxis::code`] order. Derived from
    /// `quality`, so [`ServeIndexState::digest`] does not fold it in.
    quality_deciles: [[usize; 11]; 4],
}

/// A sharded view over one database: the owned [`ServeIndexState`] plus
/// borrowed entry references for answer materialisation.
///
/// The view borrows the database. For batch workloads, rebuild after a
/// cleaning pass; for delta feeds, round-trip through
/// [`ServeIndex::into_state`] / [`ServeIndexState::attach`].
#[derive(Debug)]
pub struct ServeIndex<'a> {
    entries: Vec<&'a CveEntry>,
    state: ServeIndexState,
}

/// Binary search over a sorted owned name slice (dense id = position).
macro_rules! name_id_of {
    ($names:expr, $s:expr) => {
        $names
            .binary_search_by(|n| n.as_str().cmp($s))
            .ok()
            .map(|i| i as u32)
    };
}

impl ServeIndexState {
    /// Builds the owned state for `db` with `shard_count` id shards.
    pub fn build(db: &Database, shard_count: usize) -> Self {
        assert!(shard_count > 0, "ServeIndex: shard_count must be positive");
        let entries: Vec<&CveEntry> = db.iter().collect();
        let ids: Vec<CveId> = entries.iter().map(|e| e.id).collect();
        let n = entries.len();

        // --- id shards: serial routing, parallel per-shard sort. -------
        let mut raw_shards: Vec<Vec<u32>> = vec![Vec::new(); shard_count];
        for (i, &id) in ids.iter().enumerate() {
            raw_shards[(hash_cve_id(id) % shard_count as u64) as usize].push(i as u32);
        }
        let id_shards: Vec<Vec<u32>> = minipar::par_map(&raw_shards, |shard| {
            let mut sorted = shard.clone();
            sorted.sort_unstable_by_key(|&i| ids[i as usize]);
            sorted
        });

        // --- owned name universes (dense ids in ascending name order). -
        let vendor_names: Vec<VendorName> = db.vendor_set().into_iter().cloned().collect();
        let product_names: Vec<ProductName> = db.product_set().into_iter().cloned().collect();

        // --- postings: chunked parallel proposal, ordered assembly. ----
        let vendor_pairs = propose_pairs(&entries, |entry, out| {
            for cpe in &entry.affected {
                out.push(name_id_of!(vendor_names, cpe.vendor.as_str()).expect("interned vendor"));
            }
        });
        let vendor_postings = group_postings(vendor_pairs, vendor_names.len(), &ids);
        let product_pairs = propose_pairs(&entries, |entry, out| {
            for cpe in &entry.affected {
                out.push(
                    name_id_of!(product_names, cpe.product.as_str()).expect("interned product"),
                );
            }
        });
        let product_postings = group_postings(product_pairs, product_names.len(), &ids);

        // --- secondary indexes (serial: one cheap pass each). ----------
        let mut cwe_pairs: Vec<(CweId, u32)> = Vec::new();
        let mut severity_pairs: Vec<(Severity, u32)> = Vec::new();
        for (i, entry) in entries.iter().enumerate() {
            if let Some(cwe) = entry.effective_cwe().specific() {
                cwe_pairs.push((cwe, i as u32));
            }
            if let Some(band) = effective_severity(entry) {
                severity_pairs.push((band, i as u32));
            }
        }
        let cwe_postings = group_keyed(cwe_pairs, &ids);
        let severity_postings = group_keyed(severity_pairs, &ids);

        let mut date_order: Vec<u32> = (0..n as u32).collect();
        date_order.sort_unstable_by_key(|&i| (entries[i as usize].published, ids[i as usize]));

        let projections: Vec<EntryProjection> =
            minipar::par_map(&entries, |e| EntryProjection::of(e));

        Self {
            ids,
            shard_count,
            id_shards,
            vendor_names,
            vendor_postings,
            product_names,
            product_postings,
            cwe_postings,
            severity_postings,
            date_order,
            projections,
            quality: BTreeMap::new(),
            quality_deciles: [[0; 11]; 4],
        }
    }

    /// Attaches (or refreshes) the quality ledger the read path serves
    /// from, replacing any previously attached issues wholesale.
    ///
    /// Only keyed issues for **indexed** ids are kept — a ledger's
    /// unkeyed records describe quarantined raw documents that never
    /// became entries, so they have no served identity. The replace is a
    /// map rebuild, not an index rebuild: after a warm
    /// [`Self::apply_delta`], calling this with the delta's fresh ledger
    /// brings quality answers up to date while every shard and posting
    /// list stays in place. The refreshed state is digest-identical to a
    /// fresh build of the same database with the same ledger attached.
    ///
    /// The per-axis score-decile counts that `QualityHistogram` answers
    /// from are recounted here, one score per kept entry.
    pub fn set_quality(&mut self, ledger: &QualityLedger) {
        self.quality = ledger
            .iter()
            .filter(|(id, _)| self.index_of(**id).is_some())
            .map(|(id, issues)| (*id, issues.to_vec()))
            .collect();
        self.quality_deciles = [[0; 11]; 4];
        for issues in self.quality.values() {
            let score = QualityScore::from_issues(issues);
            for axis in SCORE_AXES {
                self.quality_deciles[axis.code() as usize][score.bucket(axis) as usize] += 1;
            }
        }
    }

    /// Absorbs one delta in place: `db` is the **already-updated**
    /// database (same-id entries replaced, new entries appended — i.e.
    /// `Database::push` semantics) and `touched` lists the delivered ids.
    ///
    /// Only the structures a touched entry participates in are rewritten:
    /// its shard slot, the posting lists of names it gained or lost (names
    /// are spliced in or evicted to keep the universe exactly the set of
    /// in-use names), its CWE/severity buckets, and its `date_order` slot.
    /// Untouched postings are not even visited. The update is serial —
    /// deltas are small — so it is trivially bit-identical at any
    /// `NVD_JOBS`; equality with a fresh build is the contract
    /// `tests/determinism.rs` pins digest-for-digest.
    ///
    /// # Panics
    ///
    /// Panics if a touched id is absent from `db`, or if `db` and the
    /// state disagree about an existing entry's index (i.e. `db` was not
    /// grown with push semantics).
    pub fn apply_delta(&mut self, db: &Database, touched: &[CveId]) {
        for &id in touched {
            let entry = db.get(&id).expect("touched id present in database");
            let new = EntryProjection::of(entry);
            match self.index_of(id) {
                Some(i) => {
                    let old = self.projections[i as usize].clone();
                    if old == new {
                        continue;
                    }
                    self.retire(i, &old, &new);
                    self.admit(i, &old, &new);
                    self.projections[i as usize] = new;
                }
                None => {
                    let i = self.ids.len() as u32;
                    self.ids.push(id);
                    // Entry appended: db.push must have put it at the end.
                    assert_eq!(
                        db.as_slice().get(i as usize).map(|e| e.id),
                        Some(id),
                        "database was not grown with push semantics"
                    );
                    let shard =
                        &mut self.id_shards[(hash_cve_id(id) % self.shard_count as u64) as usize];
                    let pos = shard.partition_point(|&j| self.ids[j as usize] < id);
                    shard.insert(pos, i);
                    let empty = EntryProjection {
                        published: new.published,
                        vendors: Vec::new(),
                        products: Vec::new(),
                        cwe: None,
                        severity: None,
                    };
                    self.admit(i, &empty, &new);
                    let pos = self
                        .date_order
                        .partition_point(|&j| self.date_key(j) < (new.published, id));
                    self.date_order.insert(pos, i);
                    self.projections.push(new);
                }
            }
        }
    }

    /// The rollback-safe variant of [`Self::apply_delta`]: validates the
    /// whole delta upfront and only then commits.
    ///
    /// The checks mirror exactly the panics `apply_delta` would hit —
    /// every touched id must be present in `db`, and ids new to the index
    /// must sit at consecutive append positions (push semantics) — so
    /// after `Ok(())` the commit is infallible, and on `Err` **nothing
    /// was mutated**: the state stays digest-identical to before the
    /// call, never torn mid-update. Replaying a corrected delta after an
    /// `Err` is bit-identical to a fresh build of the corrected database
    /// (enforced in `tests/faults.rs` at shard counts 1/3/16/64).
    ///
    /// # Errors
    ///
    /// [`UpdateError::MissingEntry`] or [`UpdateError::MisplacedEntry`];
    /// see the variants.
    pub fn try_apply_delta(&mut self, db: &Database, touched: &[CveId]) -> Result<(), UpdateError> {
        let mut fresh = self.ids.len();
        let mut seen_new: BTreeSet<CveId> = BTreeSet::new();
        for &id in touched {
            if db.get(&id).is_none() {
                return Err(UpdateError::MissingEntry { id });
            }
            if self.index_of(id).is_none() && seen_new.insert(id) {
                if db.as_slice().get(fresh).map(|e| e.id) != Some(id) {
                    return Err(UpdateError::MisplacedEntry {
                        id,
                        expected_index: fresh,
                    });
                }
                fresh += 1;
            }
        }
        self.apply_delta(db, touched);
        Ok(())
    }

    /// Re-attaches the state to its (updated) database as a queryable
    /// view.
    ///
    /// # Panics
    ///
    /// Panics if `db`'s entries do not line up with the indexed ids —
    /// i.e. the state was not kept in sync via [`Self::apply_delta`].
    pub fn attach(self, db: &Database) -> ServeIndex<'_> {
        let entries: Vec<&CveEntry> = db.iter().collect();
        assert_eq!(entries.len(), self.ids.len(), "entry count diverged");
        for (e, &id) in entries.iter().zip(&self.ids) {
            assert_eq!(e.id, id, "entry order diverged from the indexed ids");
        }
        ServeIndex {
            entries,
            state: self,
        }
    }

    /// Point lookup of an entry index: shard hash plus binary search.
    fn index_of(&self, id: CveId) -> Option<u32> {
        let shard = &self.id_shards[(hash_cve_id(id) % self.shard_count as u64) as usize];
        shard
            .binary_search_by_key(&id, |&i| self.ids[i as usize])
            .ok()
            .map(|pos| shard[pos])
    }

    fn date_key(&self, i: u32) -> (Date, CveId) {
        (self.projections[i as usize].published, self.ids[i as usize])
    }

    /// Removes entry `i` from every structure the old projection put it
    /// in and the new one doesn't.
    fn retire(&mut self, i: u32, old: &EntryProjection, new: &EntryProjection) {
        let id = self.ids[i as usize];
        for v in old.vendors.iter().filter(|v| !new.vendors.contains(v)) {
            let vid = name_id_of!(self.vendor_names, v.as_str()).expect("indexed vendor");
            remove_posting(&mut self.vendor_postings[vid as usize], i, &self.ids);
            if self.vendor_postings[vid as usize].is_empty() {
                self.vendor_names.remove(vid as usize);
                self.vendor_postings.remove(vid as usize);
            }
        }
        for p in old.products.iter().filter(|p| !new.products.contains(p)) {
            let pid = name_id_of!(self.product_names, p.as_str()).expect("indexed product");
            remove_posting(&mut self.product_postings[pid as usize], i, &self.ids);
            if self.product_postings[pid as usize].is_empty() {
                self.product_names.remove(pid as usize);
                self.product_postings.remove(pid as usize);
            }
        }
        if old.cwe != new.cwe {
            if let Some(cwe) = old.cwe {
                remove_keyed(&mut self.cwe_postings, cwe, i, &self.ids);
            }
        }
        if old.severity != new.severity {
            if let Some(band) = old.severity {
                remove_keyed(&mut self.severity_postings, band, i, &self.ids);
            }
        }
        if old.published != new.published {
            let pos = self
                .date_order
                .partition_point(|&j| self.date_key(j) < (old.published, id));
            debug_assert_eq!(self.date_order[pos], i);
            self.date_order.remove(pos);
            let pos = self
                .date_order
                .partition_point(|&j| self.date_key(j) < (new.published, id));
            self.date_order.insert(pos, i);
        }
    }

    /// Adds entry `i` to every structure the new projection puts it in
    /// and the old one didn't.
    fn admit(&mut self, i: u32, old: &EntryProjection, new: &EntryProjection) {
        for v in new.vendors.iter().filter(|v| !old.vendors.contains(v)) {
            let vid = match name_id_of!(self.vendor_names, v.as_str()) {
                Some(vid) => vid,
                None => {
                    let pos = self.vendor_names.partition_point(|n| n < v);
                    self.vendor_names.insert(pos, v.clone());
                    self.vendor_postings.insert(pos, Vec::new());
                    pos as u32
                }
            };
            insert_posting(&mut self.vendor_postings[vid as usize], i, &self.ids);
        }
        for p in new.products.iter().filter(|p| !old.products.contains(p)) {
            let pid = match name_id_of!(self.product_names, p.as_str()) {
                Some(pid) => pid,
                None => {
                    let pos = self.product_names.partition_point(|n| n < p);
                    self.product_names.insert(pos, p.clone());
                    self.product_postings.insert(pos, Vec::new());
                    pos as u32
                }
            };
            insert_posting(&mut self.product_postings[pid as usize], i, &self.ids);
        }
        if new.cwe != old.cwe {
            if let Some(cwe) = new.cwe {
                insert_keyed(&mut self.cwe_postings, cwe, i, &self.ids);
            }
        }
        if new.severity != old.severity {
            if let Some(band) = new.severity {
                insert_keyed(&mut self.severity_postings, band, i, &self.ids);
            }
        }
    }

    /// Structural digest over every shard and posting list.
    ///
    /// Two builds of the same database at the same shard count must agree
    /// exactly — and so must a delta-updated state versus a fresh build of
    /// the updated database. The determinism suite compares `NVD_JOBS`
    /// 1 vs 4 builds and incremental-vs-rebuilt states through this.
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &(self.shard_count as u64).to_le_bytes());
        let fold_postings = |h: &mut u64, postings: &[Vec<u32>]| {
            for list in postings {
                *h = fnv1a(*h, &(list.len() as u64).to_le_bytes());
                for &i in list {
                    *h = fnv1a(*h, &hash_cve_id(self.ids[i as usize]).to_le_bytes());
                }
            }
        };
        fold_postings(&mut h, &self.id_shards);
        fold_postings(&mut h, &self.vendor_postings);
        fold_postings(&mut h, &self.product_postings);
        for (cwe, list) in &self.cwe_postings {
            h = fnv1a(h, &cwe.number().to_le_bytes());
            fold_postings(&mut h, std::slice::from_ref(list));
        }
        for (band, list) in &self.severity_postings {
            h = fnv1a(h, band.abbrev().as_bytes());
            fold_postings(&mut h, std::slice::from_ref(list));
        }
        fold_postings(&mut h, std::slice::from_ref(&self.date_order));
        for (id, issues) in &self.quality {
            h = fnv1a(h, &hash_cve_id(*id).to_le_bytes());
            h = fnv1a(h, &(issues.len() as u64).to_le_bytes());
            for issue in issues {
                h = fnv1a(h, &[issue.kind.code(), issue.severity.code()]);
                match &issue.resolution {
                    Resolution::AutoFixed { fix } => {
                        h = fnv1a(h, b"fix");
                        h = fnv1a(h, fix.as_bytes());
                    }
                    Resolution::NeedsReview => h = fnv1a(h, b"rev"),
                }
                h = fnv1a(h, issue.evidence.as_bytes());
            }
        }
        h
    }
}

/// Removes `i` from a posting list sorted by CVE id.
///
/// # Panics
///
/// Panics if `i` is not in the list.
fn remove_posting(list: &mut Vec<u32>, i: u32, ids: &[CveId]) {
    let id = ids[i as usize];
    let pos = list.partition_point(|&j| ids[j as usize] < id);
    assert!(list.get(pos) == Some(&i), "posted entry");
    list.remove(pos);
}

/// Inserts `i` into a posting list at its CVE-id-sorted position.
fn insert_posting(list: &mut Vec<u32>, i: u32, ids: &[CveId]) {
    let id = ids[i as usize];
    let pos = list.partition_point(|&j| ids[j as usize] < id);
    list.insert(pos, i);
}

/// Removes `i` from the keyed posting list for `key`, dropping the bucket
/// when it empties (fresh builds only materialise non-empty buckets).
fn remove_keyed<K: Ord + Copy>(buckets: &mut Vec<(K, Vec<u32>)>, key: K, i: u32, ids: &[CveId]) {
    let b = buckets
        .binary_search_by_key(&key, |&(k, _)| k)
        .expect("indexed bucket");
    remove_posting(&mut buckets[b].1, i, ids);
    if buckets[b].1.is_empty() {
        buckets.remove(b);
    }
}

/// Inserts `i` into the keyed posting list for `key`, creating the bucket
/// at its sorted position when absent.
fn insert_keyed<K: Ord + Copy>(buckets: &mut Vec<(K, Vec<u32>)>, key: K, i: u32, ids: &[CveId]) {
    match buckets.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(b) => insert_posting(&mut buckets[b].1, i, ids),
        Err(b) => buckets.insert(b, (key, vec![i])),
    }
}

impl<'a> ServeIndex<'a> {
    /// Default shard count: enough to keep per-shard binary searches short
    /// at paper scale without fragmenting a small corpus.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Builds the index with [`Self::DEFAULT_SHARDS`] id shards.
    pub fn build(db: &'a Database) -> Self {
        Self::with_shards(db, Self::DEFAULT_SHARDS)
    }

    /// Builds the index with an explicit id-shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn with_shards(db: &'a Database, shard_count: usize) -> Self {
        ServeIndexState::build(db, shard_count).attach(db)
    }

    /// Detaches the owned state, releasing the database borrow so a delta
    /// can be pushed and absorbed via [`ServeIndexState::apply_delta`].
    pub fn into_state(self) -> ServeIndexState {
        self.state
    }

    /// Attaches a quality ledger for [`Query::QualityLookup`] /
    /// [`Query::QualityHistogram`] answers (see
    /// [`ServeIndexState::set_quality`]).
    pub fn with_quality(mut self, ledger: &QualityLedger) -> Self {
        self.state.set_quality(ledger);
        self
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is over an empty database.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of id shards.
    pub fn shard_count(&self) -> usize {
        self.state.shard_count
    }

    /// Number of distinct interned vendors.
    pub fn vendor_count(&self) -> usize {
        self.state.vendor_names.len()
    }

    /// Number of distinct interned products.
    pub fn product_count(&self) -> usize {
        self.state.product_names.len()
    }

    /// Point lookup: shard hash plus binary search within the shard.
    pub fn get(&self, id: CveId) -> Option<&'a CveEntry> {
        self.state.index_of(id).map(|i| self.entries[i as usize])
    }

    /// Structural digest over every shard and posting list (see
    /// [`ServeIndexState::digest`]).
    pub fn digest(&self) -> u64 {
        self.state.digest()
    }

    /// The `date_order` slice covering `since..=until`.
    fn window_slice(&self, since: Date, until: Date) -> &[u32] {
        let lower = self
            .state
            .date_order
            .partition_point(|&i| self.entries[i as usize].published < since);
        let upper = self
            .state
            .date_order
            .partition_point(|&i| self.entries[i as usize].published <= until);
        &self.state.date_order[lower..upper]
    }

    fn ids_of(&self, postings: &[u32]) -> Vec<CveId> {
        postings
            .iter()
            .map(|&i| self.state.ids[i as usize])
            .collect()
    }
}

/// Chunked parallel postings proposal: maps each entry to its name ids,
/// returning `(name_id, entry_idx)` pairs concatenated in entry order.
/// Chunk boundaries are fixed by [`POSTING_CHUNK`], so the pair stream is
/// identical at any thread count; duplicate pairs (one entry, several CPEs
/// of the same name) are collapsed later in [`group_postings`].
fn propose_pairs(
    entries: &[&CveEntry],
    emit: impl Fn(&CveEntry, &mut Vec<u32>) + Sync,
) -> Vec<(u32, u32)> {
    let idx: Vec<u32> = (0..entries.len() as u32).collect();
    minipar::par_chunks(&idx, POSTING_CHUNK, |_ci, part| {
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(part.len());
        let mut scratch: Vec<u32> = Vec::new();
        for &i in part {
            scratch.clear();
            emit(entries[i as usize], &mut scratch);
            pairs.extend(scratch.iter().map(|&nid| (nid, i)));
        }
        pairs
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Groups `(name_id, entry_idx)` pairs into per-name postings sorted by
/// CVE id.
fn group_postings(mut pairs: Vec<(u32, u32)>, names: usize, ids: &[CveId]) -> Vec<Vec<u32>> {
    pairs.sort_unstable_by_key(|&(nid, i)| (nid, ids[i as usize]));
    pairs.dedup();
    let mut postings: Vec<Vec<u32>> = vec![Vec::new(); names];
    for (nid, i) in pairs {
        postings[nid as usize].push(i);
    }
    postings
}

/// Groups `(key, entry_idx)` pairs into non-empty per-key postings sorted
/// by CVE id, keys ascending.
fn group_keyed<K: Ord + Copy>(mut pairs: Vec<(K, u32)>, ids: &[CveId]) -> Vec<(K, Vec<u32>)> {
    pairs.sort_unstable_by_key(|&(k, i)| (k, ids[i as usize]));
    let mut grouped: Vec<(K, Vec<u32>)> = Vec::new();
    for (k, i) in pairs {
        match grouped.last_mut() {
            Some((key, list)) if *key == k => list.push(i),
            _ => grouped.push((k, vec![i])),
        }
    }
    grouped
}

impl QueryEngine for ServeIndex<'_> {
    fn execute<'db>(&'db self, query: &Query) -> QueryResult<'db> {
        match query {
            Query::PointLookup(id) => QueryResult::Entry(self.get(*id)),
            Query::VendorWatch(vendor) => {
                let ids = match name_id_of!(self.state.vendor_names, vendor.as_str()) {
                    Some(vid) => self.ids_of(&self.state.vendor_postings[vid as usize]),
                    None => Vec::new(),
                };
                QueryResult::Ids(ids)
            }
            Query::ProductWatch(product) => {
                let ids = match name_id_of!(self.state.product_names, product.as_str()) {
                    Some(pid) => self.ids_of(&self.state.product_postings[pid as usize]),
                    None => Vec::new(),
                };
                QueryResult::Ids(ids)
            }
            Query::PatchWindow { since, until } => {
                QueryResult::Ids(self.ids_of(self.window_slice(*since, *until)))
            }
            Query::SeverityHistogram { window } => match window {
                None => QueryResult::SeverityHistogram(
                    self.state
                        .severity_postings
                        .iter()
                        .map(|(band, list)| (*band, list.len()))
                        .collect(),
                ),
                Some((since, until)) => {
                    let mut counts = [0usize; 5];
                    for &i in self.window_slice(*since, *until) {
                        if let Some(band) = effective_severity(self.entries[i as usize]) {
                            counts[band as usize] += 1;
                        }
                    }
                    QueryResult::SeverityHistogram(histogram_from_counts(&counts))
                }
            },
            Query::CweHistogram => QueryResult::CweHistogram(
                self.state
                    .cwe_postings
                    .iter()
                    .map(|(cwe, list)| (*cwe, list.len()))
                    .collect(),
            ),
            Query::QualityLookup(id) => match self.state.index_of(*id) {
                None => QueryResult::Quality(None),
                Some(_) => {
                    let issues: &[QualityIssue] =
                        self.state.quality.get(id).map_or(&[], |v| v.as_slice());
                    QueryResult::Quality(Some((QualityScore::from_issues(issues), issues)))
                }
            },
            Query::QualityHistogram { axis } => {
                // The attached entries' deciles were counted by
                // `set_quality`. Every other entry (including any appended
                // by a warm `apply_delta` since) is issue-free: perfect.
                let mut counts = self.state.quality_deciles[axis.code() as usize];
                counts[10] += self.len() - self.state.quality.len();
                QueryResult::QualityHistogram(quality_histogram_from_counts(&counts))
            }
        }
    }
}

/// Converts a per-decile count array (indexed by score bucket 0..=10)
/// into canonical non-empty ascending buckets.
pub(crate) fn quality_histogram_from_counts(counts: &[usize; 11]) -> Vec<(u8, usize)> {
    counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(bucket, &c)| (bucket as u8, c))
        .collect()
}

/// Converts a per-band count array (indexed by `Severity as usize`) into
/// canonical non-empty ascending buckets.
pub(crate) fn histogram_from_counts(counts: &[usize; 5]) -> Vec<(Severity, usize)> {
    const BANDS: [Severity; 5] = [
        Severity::None,
        Severity::Low,
        Severity::Medium,
        Severity::High,
        Severity::Critical,
    ];
    BANDS
        .iter()
        .zip(counts)
        .filter(|(_, &c)| c > 0)
        .map(|(&b, &c)| (b, c))
        .collect()
}
