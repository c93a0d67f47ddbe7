//! The sharded index set behind the read path.
//!
//! [`ServeIndex::build`] loads a (cleaned) [`Database`] into:
//!
//! * **hash-sharded id shards** — each CVE id is routed to
//!   `fnv1a(id) % shard_count`; within a shard, entry indices are sorted by
//!   id, so a point lookup is one hash plus one binary search over `n/S`
//!   ids. Shard routing is a pure function of the id, never of insertion
//!   order, so any shard count serves identical answers;
//! * **name-keyed postings** — one hash map per name kind, from each
//!   in-use vendor (product) name to the ids of the CVEs naming it,
//!   ascending. A watch query is one hash probe, and its answer borrows the
//!   posting list as a slice;
//! * **secondary indexes** — per-CWE and per-severity-band id postings,
//!   plus one `(published, id)`-ordered permutation with aligned date and
//!   id columns, so a patch window is two binary searches over the dates
//!   and a borrowed slice of the ids.
//!
//! Construction fans over `minipar` (per-shard sorts, per-entry
//! projections) with the workspace's standing guarantee: the built index —
//! and therefore every query answer — is bit-identical at any `NVD_JOBS`.
//! Nothing depends on the hash maps' iteration order: the digest folds the
//! name postings in ascending name order.
//!
//! # Staying warm under delta feeds
//!
//! The index holds its database: borrowed by [`ServeIndex::build`] and
//! [`ServeIndex::with_shards`], owned by [`ServeIndex::owned`]. When a
//! delta arrives, [`ServeIndex::apply_delta`] pushes its entries into that
//! database (`Database::push` semantics) and surgically updates only the
//! touched structures; a borrowed index copies its database on the first
//! delta. Every structure is a canonical function of the entry set — a
//! name whose last posting disappears loses its key, a new name gains
//! one, and every list stays sorted — so the updated index is
//! **bit-identical** (digest-equal) to a fresh build of
//! [`ServeIndex::database`], which `tests/determinism.rs` enforces.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::ops::Range;

use nvd_clean::quality::{QualityIssue, QualityLedger, QualityScore, Resolution, ScoreAxis};
use nvd_model::prelude::{
    CveEntry, CveId, CweId, Database, Date, ProductName, Severity, VendorName,
};

use crate::query::{
    effective_severity, fnv1a, hash_cve_id, Query, QueryEngine, QueryResult, FNV_OFFSET,
};

/// Every score axis, in [`ScoreAxis::code`] order: the row order of
/// `ServeIndex::quality_deciles`.
const SCORE_AXES: [ScoreAxis; 4] = [
    ScoreAxis::Completeness,
    ScoreAxis::Consistency,
    ScoreAxis::Accuracy,
    ScoreAxis::Overall,
];

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

/// A sharded index over one database, holding the database it serves.
///
/// [`ServeIndex::build`] and [`ServeIndex::with_shards`] borrow the
/// database — a batch workload rebuilds after each cleaning pass at no
/// copy. [`ServeIndex::owned`] takes it by value, for a warm index that
/// absorbs delta feeds through [`ServeIndex::apply_delta`]. A delta
/// applied to a borrowed index first copies the database into the index
/// (see [`ServeIndex::apply_delta`]).
#[derive(Debug, Clone)]
pub struct ServeIndex<'a> {
    /// The served entries; entry `i` is `db.as_slice()[i]`.
    db: Cow<'a, Database>,
    /// `ids[i]` is the id of database entry `i`, in insertion order: the
    /// compact key column the shard binary searches probe.
    ids: Vec<CveId>,
    shard_count: usize,
    /// Per-shard entry indices, each sorted ascending by CVE id.
    id_shards: Vec<Vec<u32>>,
    /// Per in-use vendor, the CVE ids naming it, ascending. Keys are
    /// exactly the vendors of the indexed entries: no list is empty.
    vendor_postings: HashMap<VendorName, Vec<CveId>>,
    /// Per in-use product, the CVE ids naming it, ascending.
    product_postings: HashMap<ProductName, Vec<CveId>>,
    /// Non-empty per-CWE id postings, ascending by CWE id.
    cwe_postings: Vec<(CweId, Vec<CveId>)>,
    /// Non-empty per-band id postings, ascending by severity band.
    severity_postings: Vec<(Severity, Vec<CveId>)>,
    /// All entry indices, sorted ascending by `(published, id)`.
    date_order: Vec<u32>,
    /// `date_ids[k]` is the id of entry `date_order[k]`: the column a
    /// patch window answers with as a borrowed slice.
    date_ids: Vec<CveId>,
    /// `dates[k]` is the publication date of entry `date_order[k]`: the
    /// column window bounds are binary-searched in.
    dates: Vec<Date>,
    /// Per-entry projections, aligned with `ids`.
    projections: Vec<EntryProjection>,
    /// Per-CVE score and quality issues for served entries, attached via
    /// [`ServeIndex::set_quality`]; ids absent here serve as issue-free
    /// (perfect score). Empty until a ledger is attached.
    ///
    /// Cost model: `set_quality` is the only writer. It scores each kept
    /// entry once, so a `QualityLookup` is one map probe, and refreshes
    /// `quality_deciles` alongside, so a `QualityHistogram` query reads
    /// eleven counters instead of walking this map. `LinearScan` keeps
    /// the walk as the oracle.
    quality: BTreeMap<CveId, (QualityScore, Vec<QualityIssue>)>,
    /// Score-decile counts (buckets 0..=10) of the entries in `quality`,
    /// one row per axis in [`ScoreAxis::code`] order. Derived from
    /// `quality`, so [`ServeIndex::digest`] does not fold it in.
    quality_deciles: [[usize; 11]; 4],
}

impl<'a> ServeIndex<'a> {
    /// Default shard count: enough to keep per-shard binary searches short
    /// at paper scale without fragmenting a small corpus.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Builds the index over a borrowed database with
    /// [`Self::DEFAULT_SHARDS`] id shards.
    pub fn build(db: &'a Database) -> Self {
        Self::with_shards(db, Self::DEFAULT_SHARDS)
    }

    /// Builds the index over a borrowed database with an explicit
    /// id-shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn with_shards(db: &'a Database, shard_count: usize) -> Self {
        Self::new(Cow::Borrowed(db), shard_count)
    }

    fn new(db: Cow<'a, Database>, shard_count: usize) -> Self {
        assert!(shard_count > 0, "ServeIndex: shard_count must be positive");
        let entries = db.as_slice();
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

        let projections: Vec<EntryProjection> = minipar::par_map(entries, EntryProjection::of);

        // --- postings: pushed in entry order, then sorted by id. -------
        let mut vendor_postings: HashMap<VendorName, Vec<CveId>> = HashMap::new();
        let mut product_postings: HashMap<ProductName, Vec<CveId>> = HashMap::new();
        let mut cwe_postings: BTreeMap<CweId, Vec<CveId>> = BTreeMap::new();
        let mut severity_postings: BTreeMap<Severity, Vec<CveId>> = BTreeMap::new();
        for (p, &id) in projections.iter().zip(&ids) {
            for v in &p.vendors {
                push_posting(&mut vendor_postings, v, id);
            }
            for name in &p.products {
                push_posting(&mut product_postings, name, id);
            }
            if let Some(cwe) = p.cwe {
                cwe_postings.entry(cwe).or_default().push(id);
            }
            if let Some(band) = p.severity {
                severity_postings.entry(band).or_default().push(id);
            }
        }
        let lists = vendor_postings
            .values_mut()
            .chain(product_postings.values_mut())
            .chain(cwe_postings.values_mut())
            .chain(severity_postings.values_mut());
        for list in lists {
            list.sort_unstable();
        }

        let mut date_order: Vec<u32> = (0..n as u32).collect();
        date_order.sort_unstable_by_key(|&i| (projections[i as usize].published, ids[i as usize]));
        let date_ids: Vec<CveId> = date_order.iter().map(|&i| ids[i as usize]).collect();
        let dates: Vec<Date> = date_order
            .iter()
            .map(|&i| projections[i as usize].published)
            .collect();

        Self {
            db,
            ids,
            shard_count,
            id_shards,
            vendor_postings,
            product_postings,
            cwe_postings: cwe_postings.into_iter().collect(),
            severity_postings: severity_postings.into_iter().collect(),
            date_order,
            date_ids,
            dates,
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
    /// list stays in place. The refreshed index is digest-identical to a
    /// fresh build of the same database with the same ledger attached.
    ///
    /// Each kept entry is scored once here: lookups answer with the
    /// stored score, and the per-axis score-decile counts that
    /// `QualityHistogram` answers from are recounted from it.
    pub fn set_quality(&mut self, ledger: &QualityLedger) {
        self.quality = ledger
            .iter()
            .filter(|(id, _)| self.index_of(**id).is_some())
            .map(|(id, issues)| (*id, (QualityScore::from_issues(issues), issues.to_vec())))
            .collect();
        self.quality_deciles = [[0; 11]; 4];
        for (score, _) in self.quality.values() {
            for axis in SCORE_AXES {
                self.quality_deciles[axis.code() as usize][score.bucket(axis) as usize] += 1;
            }
        }
    }

    /// Attaches a quality ledger for [`Query::QualityLookup`] /
    /// [`Query::QualityHistogram`] answers (see [`Self::set_quality`]).
    pub fn with_quality(mut self, ledger: &QualityLedger) -> Self {
        self.set_quality(ledger);
        self
    }

    /// Absorbs one delta in place, in delivery order: each entry is pushed
    /// into the index's database with [`Database::push`] semantics (a
    /// known id is replaced where it stands, a new id is appended), and
    /// only the structures it participates in are rewritten.
    ///
    /// An id delivered twice in one delta ends up as its last delivery,
    /// exactly as in the database. On a borrowed index the first delta
    /// copies the database into the index (copy on write); the caller's
    /// database is never modified.
    ///
    /// The update touches the entry's shard slot, the posting lists of
    /// names it gained or lost (a name gains a key on its first posting
    /// and loses it with its last, so the keys stay exactly the in-use
    /// names), its CWE/severity buckets, and its date slot. Untouched
    /// postings are not even visited. The update is serial — deltas are
    /// small — so it is trivially bit-identical at any `NVD_JOBS`; the
    /// updated index is digest-identical to a fresh build of its
    /// database, the contract `tests/determinism.rs` pins at shard counts
    /// 1/3/16/64.
    ///
    /// Attached quality is not touched: refresh it with
    /// [`Self::set_quality`]. Until then appended entries serve as
    /// issue-free.
    pub fn apply_delta(&mut self, delta: &[CveEntry]) {
        for entry in delta {
            let id = entry.id;
            let new = EntryProjection::of(entry);
            self.db.to_mut().push(entry.clone());
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
                    // `Database::push` appended the entry: it sits at the
                    // next entry index.
                    let i = self.ids.len() as u32;
                    self.ids.push(id);
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
                    self.insert_dated(i, new.published);
                    self.projections.push(new);
                }
            }
        }
    }

    /// Reserves room for at least `additional` more entries in the
    /// database and the per-entry columns, so a delta of that many new CVEs
    /// appends without reallocating them (a clone carries no spare
    /// capacity).
    pub fn reserve(&mut self, additional: usize) {
        self.db.to_mut().reserve(additional);
        self.ids.reserve(additional);
        self.projections.reserve(additional);
        self.date_order.reserve(additional);
        self.date_ids.reserve(additional);
        self.dates.reserve(additional);
    }

    /// The served database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is over an empty database.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of id shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Number of distinct vendors named by the indexed entries.
    pub fn vendor_count(&self) -> usize {
        self.vendor_postings.len()
    }

    /// Number of distinct products named by the indexed entries.
    pub fn product_count(&self) -> usize {
        self.product_postings.len()
    }

    /// Point lookup: shard hash plus binary search within the shard.
    pub fn get(&self, id: CveId) -> Option<&CveEntry> {
        self.index_of(id).map(|i| &self.db.as_slice()[i as usize])
    }

    /// Point lookup of an entry index: shard hash plus binary search.
    fn index_of(&self, id: CveId) -> Option<u32> {
        let shard = &self.id_shards[(hash_cve_id(id) % self.shard_count as u64) as usize];
        shard
            .binary_search_by_key(&id, |&i| self.ids[i as usize])
            .ok()
            .map(|pos| shard[pos])
    }

    /// The date-order positions covering `since..=until`; empty when
    /// `since > until`.
    fn window(&self, since: Date, until: Date) -> Range<usize> {
        let lower = self.dates.partition_point(|&d| d < since);
        let upper = self.dates.partition_point(|&d| d <= until);
        lower..upper.max(lower)
    }

    /// Position of `(published, id)` in the date order.
    fn date_slot(&self, published: Date, id: CveId) -> usize {
        let same_day = self.window(published, published);
        same_day.start + self.date_ids[same_day].partition_point(|&j| j < id)
    }

    /// Inserts entry `i` into the date columns at its `(published, id)`
    /// position.
    fn insert_dated(&mut self, i: u32, published: Date) {
        let id = self.ids[i as usize];
        let pos = self.date_slot(published, id);
        self.date_order.insert(pos, i);
        self.date_ids.insert(pos, id);
        self.dates.insert(pos, published);
    }

    /// Removes entry `i`, dated `published`, from the date columns.
    fn remove_dated(&mut self, i: u32, published: Date) {
        let pos = self.date_slot(published, self.ids[i as usize]);
        debug_assert_eq!(self.date_order[pos], i);
        self.date_order.remove(pos);
        self.date_ids.remove(pos);
        self.dates.remove(pos);
    }

    /// Removes entry `i` from every structure the old projection put it
    /// in and the new one doesn't.
    fn retire(&mut self, i: u32, old: &EntryProjection, new: &EntryProjection) {
        let id = self.ids[i as usize];
        for v in old.vendors.iter().filter(|v| !new.vendors.contains(v)) {
            remove_named(&mut self.vendor_postings, v, id);
        }
        for p in old.products.iter().filter(|p| !new.products.contains(p)) {
            remove_named(&mut self.product_postings, p, id);
        }
        if old.cwe != new.cwe {
            if let Some(cwe) = old.cwe {
                remove_keyed(&mut self.cwe_postings, cwe, id);
            }
        }
        if old.severity != new.severity {
            if let Some(band) = old.severity {
                remove_keyed(&mut self.severity_postings, band, id);
            }
        }
        if old.published != new.published {
            self.remove_dated(i, old.published);
            self.insert_dated(i, new.published);
        }
    }

    /// Adds entry `i` to every structure the new projection puts it in
    /// and the old one didn't.
    fn admit(&mut self, i: u32, old: &EntryProjection, new: &EntryProjection) {
        let id = self.ids[i as usize];
        for v in new.vendors.iter().filter(|v| !old.vendors.contains(v)) {
            insert_posting(self.vendor_postings.entry(v.clone()).or_default(), id);
        }
        for p in new.products.iter().filter(|p| !old.products.contains(p)) {
            insert_posting(self.product_postings.entry(p.clone()).or_default(), id);
        }
        if new.cwe != old.cwe {
            if let Some(cwe) = new.cwe {
                insert_keyed(&mut self.cwe_postings, cwe, id);
            }
        }
        if new.severity != old.severity {
            if let Some(band) = new.severity {
                insert_keyed(&mut self.severity_postings, band, id);
            }
        }
    }

    /// Structural digest over every shard, posting list and attached
    /// quality record.
    ///
    /// Two builds of the same database at the same shard count must agree
    /// exactly — and so must a delta-updated index versus a fresh build of
    /// the updated database. The determinism suite compares `NVD_JOBS`
    /// 1 vs 4 builds and incremental-vs-rebuilt indexes through this.
    pub fn digest(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &(self.shard_count as u64).to_le_bytes());
        for shard in &self.id_shards {
            h = fold_list(h, shard.iter().map(|&i| self.ids[i as usize]));
        }
        for list in sorted_by_key(&self.vendor_postings) {
            h = fold_list(h, list.iter().copied());
        }
        for list in sorted_by_key(&self.product_postings) {
            h = fold_list(h, list.iter().copied());
        }
        for (cwe, list) in &self.cwe_postings {
            h = fnv1a(h, &cwe.number().to_le_bytes());
            h = fold_list(h, list.iter().copied());
        }
        for (band, list) in &self.severity_postings {
            h = fnv1a(h, band.abbrev().as_bytes());
            h = fold_list(h, list.iter().copied());
        }
        h = fold_list(h, self.date_ids.iter().copied());
        for (id, (_, issues)) in &self.quality {
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

/// Folds one id list into the digest: its length, then each id's hash.
fn fold_list(mut h: u64, list: impl ExactSizeIterator<Item = CveId>) -> u64 {
    h = fnv1a(h, &(list.len() as u64).to_le_bytes());
    for id in list {
        h = fnv1a(h, &hash_cve_id(id).to_le_bytes());
    }
    h
}

/// A name map's posting lists in ascending name order, so nothing that
/// reads them depends on the map's iteration order.
fn sorted_by_key<K: Ord>(map: &HashMap<K, Vec<CveId>>) -> Vec<&Vec<CveId>> {
    let mut pairs: Vec<(&K, &Vec<CveId>)> = map.iter().collect();
    pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
    pairs.into_iter().map(|(_, list)| list).collect()
}

/// Appends `id` to the posting list of `name`, creating it on first use.
fn push_posting<K: Hash + Eq + Clone>(map: &mut HashMap<K, Vec<CveId>>, name: &K, id: CveId) {
    match map.get_mut(name) {
        Some(list) => list.push(id),
        None => {
            map.insert(name.clone(), vec![id]);
        }
    }
}

/// Removes `id` from the posting list of `name`, dropping the key when the
/// list empties (fresh builds only hold in-use names).
///
/// # Panics
///
/// Panics if `id` is not posted under `name`.
fn remove_named<K: Hash + Eq>(map: &mut HashMap<K, Vec<CveId>>, name: &K, id: CveId) {
    let list = map.get_mut(name).expect("indexed name");
    remove_posting(list, id);
    if list.is_empty() {
        map.remove(name);
    }
}

/// Removes `id` from an ascending posting list.
///
/// # Panics
///
/// Panics if `id` is not in the list.
fn remove_posting(list: &mut Vec<CveId>, id: CveId) {
    let pos = list.binary_search(&id).expect("posted entry");
    list.remove(pos);
}

/// Inserts `id` into an ascending posting list at its sorted position.
fn insert_posting(list: &mut Vec<CveId>, id: CveId) {
    let pos = list.binary_search(&id).unwrap_or_else(|pos| pos);
    list.insert(pos, id);
}

/// Removes `id` from the keyed posting list for `key`, dropping the bucket
/// when it empties (fresh builds only materialise non-empty buckets).
fn remove_keyed<K: Ord + Copy>(buckets: &mut Vec<(K, Vec<CveId>)>, key: K, id: CveId) {
    let b = buckets
        .binary_search_by_key(&key, |&(k, _)| k)
        .expect("indexed bucket");
    remove_posting(&mut buckets[b].1, id);
    if buckets[b].1.is_empty() {
        buckets.remove(b);
    }
}

/// Inserts `id` into the keyed posting list for `key`, creating the bucket
/// at its sorted position when absent.
fn insert_keyed<K: Ord + Copy>(buckets: &mut Vec<(K, Vec<CveId>)>, key: K, id: CveId) {
    match buckets.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(b) => insert_posting(&mut buckets[b].1, id),
        Err(b) => buckets.insert(b, (key, vec![id])),
    }
}

impl ServeIndex<'static> {
    /// Builds the index over a database it owns — the warm index that
    /// absorbs delta feeds through [`Self::apply_delta`] without copying.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn owned(db: Database, shard_count: usize) -> Self {
        Self::new(Cow::Owned(db), shard_count)
    }
}

/// A watch answer: the borrowed posting list, or empty for an unknown name.
fn watch_answer(list: Option<&Vec<CveId>>) -> QueryResult<'_> {
    QueryResult::Ids(Cow::Borrowed(list.map_or(&[], Vec::as_slice)))
}

impl QueryEngine for ServeIndex<'_> {
    fn execute<'db>(&'db self, query: &Query) -> QueryResult<'db> {
        match query {
            Query::PointLookup(id) => QueryResult::Entry(self.get(*id)),
            Query::VendorWatch(vendor) => watch_answer(self.vendor_postings.get(vendor)),
            Query::ProductWatch(product) => watch_answer(self.product_postings.get(product)),
            Query::PatchWindow { since, until } => {
                QueryResult::Ids(Cow::Borrowed(&self.date_ids[self.window(*since, *until)]))
            }
            Query::SeverityHistogram { window } => match window {
                None => QueryResult::SeverityHistogram(
                    self.severity_postings
                        .iter()
                        .map(|(band, list)| (*band, list.len()))
                        .collect(),
                ),
                Some((since, until)) => {
                    let mut counts = [0usize; 5];
                    for &i in &self.date_order[self.window(*since, *until)] {
                        if let Some(band) = self.projections[i as usize].severity {
                            counts[band as usize] += 1;
                        }
                    }
                    QueryResult::SeverityHistogram(histogram_from_counts(&counts))
                }
            },
            Query::CweHistogram => QueryResult::CweHistogram(
                self.cwe_postings
                    .iter()
                    .map(|(cwe, list)| (*cwe, list.len()))
                    .collect(),
            ),
            Query::QualityLookup(id) => QueryResult::Quality(match self.quality.get(id) {
                Some((score, issues)) => Some((*score, issues.as_slice())),
                None => self
                    .index_of(*id)
                    .map(|_| (QualityScore::perfect(), &[][..])),
            }),
            Query::QualityHistogram { axis } => {
                // The attached entries' deciles were counted by
                // `set_quality`. Every other entry (including any appended
                // by a warm `apply_delta` since) is issue-free: perfect.
                let mut counts = self.quality_deciles[axis.code() as usize];
                counts[10] += self.len() - self.quality.len();
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
