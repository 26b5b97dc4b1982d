//! Match-action tables with hardware capacity limits.
//!
//! Tofino tables live in finite TCAM/SRAM; a control plane that keeps
//! installing entries eventually gets a table-full error and must degrade
//! gracefully (P4CE rejects the new communication group, §IV-A). Lookups
//! are counted so experiments can report table pressure.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Lookup/occupancy counters of one table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups that matched an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Successful inserts.
    pub inserts: u64,
    /// Entries removed.
    pub removes: u64,
    /// Inserts refused because the table was full.
    pub rejections: u64,
}

/// Returned when an insert would exceed the table's capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableFull {
    /// The table's diagnostic name.
    pub table: String,
    /// Its capacity, in entries.
    pub capacity: usize,
}

impl fmt::Display for TableFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "match table '{}' is full ({} entries)",
            self.table, self.capacity
        )
    }
}

impl Error for TableFull {}

/// An exact-match match-action table of bounded capacity.
///
/// ```
/// use tofino::MatchTable;
/// let mut t: MatchTable<u32, &str> = MatchTable::new("bcast_qp", 2);
/// t.insert(7, "group-1").expect("fits");
/// t.insert(9, "group-2").expect("fits");
/// assert!(t.insert(11, "group-3").is_err(), "capacity enforced");
/// assert_eq!(t.lookup(&7), Some(&"group-1"));
/// assert_eq!(t.lookup(&8), None);
/// assert_eq!(t.stats().hits, 1);
/// assert_eq!(t.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct MatchTable<K: Ord, V> {
    name: String,
    capacity: usize,
    entries: BTreeMap<K, V>,
    stats: TableStats,
}

impl<K: Ord, V> MatchTable<K, V> {
    /// Allocates a table holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "a table needs at least one entry");
        MatchTable {
            name: name.into(),
            capacity,
            entries: BTreeMap::new(),
            stats: TableStats::default(),
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup/occupancy counters.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Installs (or replaces) an entry.
    ///
    /// # Errors
    ///
    /// Returns [`TableFull`] when inserting a *new* key into a full table
    /// (replacing an existing key always succeeds).
    pub fn insert(&mut self, key: K, value: V) -> Result<Option<V>, TableFull> {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.stats.rejections += 1;
            return Err(TableFull {
                table: self.name.clone(),
                capacity: self.capacity,
            });
        }
        self.stats.inserts += 1;
        Ok(self.entries.insert(key, value))
    }

    /// Data-plane lookup (counted).
    pub fn lookup(&mut self, key: &K) -> Option<&V> {
        match self.entries.get(key) {
            Some(v) => {
                self.stats.hits += 1;
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Removes an entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let removed = self.entries.remove(key);
        if removed.is_some() {
            self.stats.removes += 1;
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_enforced_for_new_keys_only() {
        let mut t: MatchTable<u8, u8> = MatchTable::new("t", 2);
        t.insert(1, 10).expect("fits");
        t.insert(2, 20).expect("fits");
        let err = t.insert(3, 30).expect_err("full");
        assert_eq!(err.capacity, 2);
        assert_eq!(t.stats().rejections, 1);
        // Replacing key 1 is fine even when full.
        assert_eq!(t.insert(1, 11).expect("replace"), Some(10));
        assert_eq!(t.lookup(&1), Some(&11));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookups_are_counted() {
        let mut t: MatchTable<u8, u8> = MatchTable::new("t", 4);
        t.insert(1, 1).expect("fits");
        assert!(t.lookup(&1).is_some());
        assert!(t.lookup(&2).is_none());
        assert!(t.lookup(&1).is_some());
        assert_eq!(t.stats().hits, 2);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn remove_frees_space() {
        let mut t: MatchTable<u8, u8> = MatchTable::new("t", 1);
        t.insert(1, 1).expect("fits");
        assert!(t.insert(2, 2).is_err());
        assert_eq!(t.remove(&1), Some(1));
        assert!(t.is_empty());
        t.insert(2, 2).expect("freed");
        assert_eq!(t.stats().removes, 1);
        assert_eq!(t.remove(&9), None);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _: MatchTable<u8, u8> = MatchTable::new("bad", 0);
    }
}
