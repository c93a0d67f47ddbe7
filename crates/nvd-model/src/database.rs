//! The in-memory vulnerability database: a collection of [`CveEntry`]s with
//! id lookup and the aggregate statistics the paper reports in §3.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::cpe::{ProductName, VendorName};
use crate::cve::CveId;
use crate::entry::CveEntry;

/// Aggregate statistics of a database, mirroring the paper's §3 inventory
/// ("107.2K CVEs … 453 CWE types, affecting 18.9K vendors and 46.6K products;
/// 37.5K recent CVEs have the modern v3 severity label").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatabaseStats {
    pub cve_count: usize,
    pub distinct_cwe_types: usize,
    pub distinct_vendors: usize,
    pub distinct_products: usize,
    pub with_v3: usize,
    pub with_v2: usize,
    pub reference_count: usize,
    pub distinct_domains: usize,
    /// Publication-year range, `None` for an empty database.
    pub year_range: Option<(i32, i32)>,
}

/// An in-memory NVD-like vulnerability database.
///
/// Entries are kept sorted by CVE ID; insertion maintains a lookup index.
/// The cleaning pipeline treats a `Database` as immutable input and produces
/// a rectified copy, so mutation is limited to construction-time pushes and
/// whole-entry replacement.
///
/// ```
/// use nvd_model::database::Database;
/// use nvd_model::entry::CveEntry;
///
/// let mut db = Database::new();
/// db.push(CveEntry::new("CVE-2008-0166".parse()?, "2008-05-13".parse()?));
/// assert_eq!(db.len(), 1);
/// assert!(db.get(&"CVE-2008-0166".parse()?).is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    entries: Vec<CveEntry>,
    #[serde(skip)]
    index: BTreeMap<CveId, usize>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a database from entries; later duplicates of an ID replace
    /// earlier ones (NVD feeds carry at most one record per CVE).
    pub fn from_entries(entries: impl IntoIterator<Item = CveEntry>) -> Self {
        let mut db = Self::new();
        for e in entries {
            db.push(e);
        }
        db
    }

    /// Adds an entry, replacing any previous entry with the same ID.
    pub fn push(&mut self, entry: CveEntry) {
        match self.index.get(&entry.id) {
            Some(&i) => self.entries[i] = entry,
            None => {
                self.index.insert(entry.id, self.entries.len());
                self.entries.push(entry);
            }
        }
    }

    /// Reserves room for at least `additional` more entries, so the pushes
    /// that follow do not reallocate the entry storage.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Looks up an entry by CVE ID.
    pub fn get(&self, id: &CveId) -> Option<&CveEntry> {
        self.index.get(id).map(|&i| &self.entries[i])
    }

    /// Mutable lookup by CVE ID.
    pub fn get_mut(&mut self, id: &CveId) -> Option<&mut CveEntry> {
        self.index.get(id).map(|&i| &mut self.entries[i])
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, CveEntry> {
        self.entries.iter()
    }

    /// The entries as a slice, in insertion order.
    pub fn as_slice(&self) -> &[CveEntry] {
        &self.entries
    }

    /// Mutable iteration, for in-place rectification passes.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, CveEntry> {
        self.entries.iter_mut()
    }

    /// Rebuilds the ID index; call after deserializing.
    pub fn rebuild_index(&mut self) {
        self.index = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.id, i))
            .collect();
    }

    /// Distinct vendor names across all entries.
    pub fn vendor_set(&self) -> BTreeSet<&VendorName> {
        self.entries
            .iter()
            .flat_map(|e| e.affected.iter().map(|c| &c.vendor))
            .collect()
    }

    /// Distinct product names across all entries.
    pub fn product_set(&self) -> BTreeSet<&ProductName> {
        self.entries
            .iter()
            .flat_map(|e| e.affected.iter().map(|c| &c.product))
            .collect()
    }

    /// Map from vendor to the set of CVE ids that affect it.
    pub fn cves_by_vendor(&self) -> BTreeMap<&VendorName, BTreeSet<CveId>> {
        let mut map: BTreeMap<&VendorName, BTreeSet<CveId>> = BTreeMap::new();
        for e in &self.entries {
            for cpe in &e.affected {
                map.entry(&cpe.vendor).or_default().insert(e.id);
            }
        }
        map
    }

    /// Map from vendor to the set of its product names.
    pub fn products_by_vendor(&self) -> BTreeMap<&VendorName, BTreeSet<&ProductName>> {
        let mut map: BTreeMap<&VendorName, BTreeSet<&ProductName>> = BTreeMap::new();
        for e in &self.entries {
            for cpe in &e.affected {
                map.entry(&cpe.vendor).or_default().insert(&cpe.product);
            }
        }
        map
    }

    /// Aggregate statistics (the paper's §3 numbers for the real snapshot).
    pub fn stats(&self) -> DatabaseStats {
        let mut cwes = BTreeSet::new();
        let mut domains = BTreeSet::new();
        let mut with_v2 = 0;
        let mut with_v3 = 0;
        let mut refs = 0;
        let mut min_year = i32::MAX;
        let mut max_year = i32::MIN;
        for e in &self.entries {
            for c in &e.cwes {
                if let Some(id) = c.specific() {
                    cwes.insert(id);
                }
            }
            if e.cvss_v2.is_some() {
                with_v2 += 1;
            }
            if e.cvss_v3.is_some() {
                with_v3 += 1;
            }
            refs += e.references.len();
            for r in &e.references {
                if let Some(d) = r.domain() {
                    domains.insert(d.to_owned());
                }
            }
            let y = e.published.year();
            min_year = min_year.min(y);
            max_year = max_year.max(y);
        }
        DatabaseStats {
            cve_count: self.entries.len(),
            distinct_cwe_types: cwes.len(),
            distinct_vendors: self.vendor_set().len(),
            distinct_products: self.product_set().len(),
            with_v3,
            with_v2,
            reference_count: refs,
            distinct_domains: domains.len(),
            year_range: if self.entries.is_empty() {
                None
            } else {
                Some((min_year, max_year))
            },
        }
    }
}

impl FromIterator<CveEntry> for Database {
    fn from_iter<T: IntoIterator<Item = CveEntry>>(iter: T) -> Self {
        Self::from_entries(iter)
    }
}

impl Extend<CveEntry> for Database {
    fn extend<T: IntoIterator<Item = CveEntry>>(&mut self, iter: T) {
        for e in iter {
            self.push(e);
        }
    }
}

impl<'a> IntoIterator for &'a Database {
    type Item = &'a CveEntry;
    type IntoIter = std::slice::Iter<'a, CveEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl IntoIterator for Database {
    type Item = CveEntry;
    type IntoIter = std::vec::IntoIter<CveEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpe::CpeName;
    use crate::cwe::{CweId, CweLabel};
    use crate::entry::Reference;

    fn entry(id: &str, published: &str) -> CveEntry {
        CveEntry::new(id.parse().unwrap(), published.parse().unwrap())
    }

    #[test]
    fn push_get_replace() {
        let mut db = Database::new();
        db.push(entry("CVE-2001-0001", "2001-01-10"));
        db.push(entry("CVE-2002-0002", "2002-02-20"));
        assert_eq!(db.len(), 2);

        let mut replacement = entry("CVE-2001-0001", "2001-01-15");
        replacement
            .references
            .push(Reference::new("https://a.example/x"));
        db.push(replacement);
        assert_eq!(db.len(), 2, "same id replaces, not appends");
        assert_eq!(
            db.get(&"CVE-2001-0001".parse().unwrap())
                .unwrap()
                .published
                .to_string(),
            "2001-01-15"
        );
    }

    #[test]
    fn stats_counts_everything() {
        let mut db = Database::new();
        let mut a = entry("CVE-2001-0001", "2001-01-10");
        a.cwes = vec![CweLabel::Specific(CweId::new(79))];
        a.affected.push(CpeName::application("microsoft", "iis"));
        a.references
            .push(Reference::new("https://www.kb.cert.org/vuls/1"));
        a.references
            .push(Reference::new("https://bugzilla.redhat.com/2"));
        let mut b = entry("CVE-2005-0002", "2005-06-01");
        b.cwes = vec![CweLabel::Specific(CweId::new(89)), CweLabel::Other];
        b.affected
            .push(CpeName::application("microsoft", "sql_server"));
        b.affected.push(CpeName::application("oracle", "database"));
        b.references
            .push(Reference::new("https://www.kb.cert.org/vuls/3"));
        db.push(a);
        db.push(b);

        let stats = db.stats();
        assert_eq!(stats.cve_count, 2);
        assert_eq!(stats.distinct_cwe_types, 2);
        assert_eq!(stats.distinct_vendors, 2);
        assert_eq!(stats.distinct_products, 3);
        assert_eq!(stats.reference_count, 3);
        assert_eq!(stats.distinct_domains, 2);
        assert_eq!(stats.year_range, Some((2001, 2005)));
    }

    #[test]
    fn empty_database_stats() {
        let db = Database::new();
        let stats = db.stats();
        assert_eq!(stats.cve_count, 0);
        assert_eq!(stats.year_range, None);
        assert!(db.is_empty());
    }

    #[test]
    fn groupings() {
        let mut db = Database::new();
        let mut a = entry("CVE-2001-0001", "2001-01-10");
        a.affected.push(CpeName::application("bea", "weblogic"));
        let mut b = entry("CVE-2001-0002", "2001-02-10");
        b.affected.push(CpeName::application("bea", "weblogic"));
        b.affected.push(CpeName::application("bea", "tuxedo"));
        db.push(a);
        db.push(b);

        let by_vendor = db.cves_by_vendor();
        let bea = VendorName::new("bea");
        assert_eq!(by_vendor[&bea].len(), 2);
        let products = db.products_by_vendor();
        assert_eq!(products[&bea].len(), 2);
    }

    #[test]
    fn serde_roundtrip_rebuilds_index() {
        let mut db = Database::new();
        db.push(entry("CVE-2010-3333", "2010-11-10"));
        let json = serde_json::to_string(&db).unwrap();
        let mut back: Database = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert!(back.get(&"CVE-2010-3333".parse().unwrap()).is_some());
    }

    #[test]
    fn collect_from_iterator() {
        let db: Database = (1..=5)
            .map(|i| entry(&format!("CVE-2003-{:04}", i), "2003-05-05"))
            .collect();
        assert_eq!(db.len(), 5);
        let ids: Vec<_> = (&db).into_iter().map(|e| e.id.sequence()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }
}
