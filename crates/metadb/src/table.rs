//! Transactional record tables.
//!
//! The paper's COFS metadata service keeps its state "as a small set of
//! database tables having the information about files and directories"
//! backed by Erlang/Mnesia. [`Table`] is the Rust substitute: a typed,
//! ordered record store with insert/lookup/update/delete/range-scan
//! plus closure-scoped transactions with automatic rollback.

use crate::error::{DbError, DbErrorKind};
use simcore::stats::Counters;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::RangeBounds;

/// A storable record: knows its own primary key.
pub trait Record: Clone {
    /// Primary-key type.
    type Key: Ord + Clone + fmt::Debug;

    /// This record's primary key.
    fn key(&self) -> Self::Key;
}

/// A typed, ordered table of records.
///
/// # Examples
///
/// ```
/// use metadb::table::{Record, Table};
///
/// #[derive(Clone, Debug, PartialEq)]
/// struct User { id: u64, name: String }
/// impl Record for User {
///     type Key = u64;
///     fn key(&self) -> u64 { self.id }
/// }
///
/// let mut t = Table::new("users");
/// t.insert(User { id: 1, name: "amelia".into() })?;
/// assert_eq!(t.get(&1).unwrap().name, "amelia");
/// # Ok::<(), metadb::error::DbError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Table<R: Record> {
    name: String,
    rows: BTreeMap<R::Key, R>,
    stats: Counters,
}

impl<R: Record> Table<R> {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            rows: BTreeMap::new(),
            stats: Counters::new(),
        }
    }

    /// Inserts a new record.
    ///
    /// # Errors
    ///
    /// [`DbErrorKind::DuplicateKey`] if the key is already present.
    pub fn insert(&mut self, record: R) -> Result<(), DbError> {
        self.stats.bump("writes");
        let key = record.key();
        if self.rows.contains_key(&key) {
            return Err(DbError::new(
                DbErrorKind::DuplicateKey,
                &self.name,
                format!("{key:?}"),
            ));
        }
        self.rows.insert(key, record);
        Ok(())
    }

    /// Inserts or replaces, returning the previous record if any.
    pub fn upsert(&mut self, record: R) -> Option<R> {
        self.stats.bump("writes");
        self.rows.insert(record.key(), record)
    }

    /// Looks up a record by key.
    pub fn get(&self, key: &R::Key) -> Option<&R> {
        // Reads are counted by the service layer, which owns timing;
        // `&self` methods cannot update counters without interior
        // mutability, which we avoid.
        self.rows.get(key)
    }

    /// Looks up a record by a borrowed view of its key, so a caller
    /// holding the parts of a composite key (say, a name as `&str`)
    /// need not build an owned key for the probe.
    pub fn get_by<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&R>
    where
        R::Key: Borrow<Q>,
    {
        self.rows.get(key)
    }

    /// True if the key is present.
    pub fn contains(&self, key: &R::Key) -> bool {
        self.rows.contains_key(key)
    }

    /// Applies `f` to the record at `key`.
    ///
    /// # Errors
    ///
    /// [`DbErrorKind::NotFound`] if the key is absent.
    pub fn update(&mut self, key: &R::Key, f: impl FnOnce(&mut R)) -> Result<(), DbError> {
        self.stats.bump("writes");
        match self.rows.get_mut(key) {
            Some(r) => {
                f(r);
                debug_assert!(r.key() == *key, "update must not change the primary key");
                Ok(())
            }
            None => Err(DbError::new(
                DbErrorKind::NotFound,
                &self.name,
                format!("{key:?}"),
            )),
        }
    }

    /// Removes and returns the record at `key`.
    ///
    /// # Errors
    ///
    /// [`DbErrorKind::NotFound`] if the key is absent.
    pub fn delete(&mut self, key: &R::Key) -> Result<R, DbError> {
        self.stats.bump("writes");
        self.rows
            .remove(key)
            .ok_or_else(|| DbError::new(DbErrorKind::NotFound, &self.name, format!("{key:?}")))
    }

    /// Iterates over records whose keys lie in `range`, in key order.
    pub fn scan<B: RangeBounds<R::Key>>(&self, range: B) -> impl Iterator<Item = &R> {
        self.rows.range(range).map(|(_, r)| r)
    }

    /// Iterates over all records in key order.
    pub fn iter(&self) -> impl Iterator<Item = &R> {
        self.rows.values()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no records.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Write counters (`writes`, `txns`, `aborts`).
    pub fn stats(&self) -> &Counters {
        &self.stats
    }

    /// Runs `f` against a transactional view; if `f` returns `Err`,
    /// every mutation made through the view is rolled back.
    ///
    /// This mirrors Mnesia's `transaction/1`: the closure either
    /// commits atomically or leaves no trace.
    ///
    /// # Errors
    ///
    /// Whatever error `f` returns, unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// # use metadb::table::{Record, Table};
    /// # #[derive(Clone, Debug)]
    /// # struct U { id: u64 }
    /// # impl Record for U { type Key = u64; fn key(&self) -> u64 { self.id } }
    /// let mut t: Table<U> = Table::new("u");
    /// let r: Result<(), &str> = t.txn(|view| {
    ///     view.insert(U { id: 1 }).map_err(|_| "dup")?;
    ///     Err("abort")
    /// });
    /// assert!(r.is_err());
    /// assert!(t.is_empty()); // rolled back
    /// ```
    pub fn txn<T, E>(
        &mut self,
        f: impl FnOnce(&mut TxnView<'_, R>) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut view = TxnView {
            table: self,
            undo: Vec::new(),
        };
        match f(&mut view) {
            Ok(v) => {
                view.table.stats.bump("txns");
                Ok(v)
            }
            Err(e) => {
                // Roll back in reverse order.
                let undo = std::mem::take(&mut view.undo);
                for entry in undo.into_iter().rev() {
                    match entry {
                        Undo::Remove(key) => {
                            view.table.rows.remove(&key);
                        }
                        Undo::Restore(record) => {
                            view.table.rows.insert(record.key(), record);
                        }
                    }
                }
                view.table.stats.bump("aborts");
                Err(e)
            }
        }
    }
}

enum Undo<R: Record> {
    /// Remove a row that the transaction inserted.
    Remove(R::Key),
    /// Restore a row the transaction overwrote or deleted.
    Restore(R),
}

/// A transactional view over a [`Table`]; mutations are undone if the
/// enclosing [`Table::txn`] closure fails.
pub struct TxnView<'a, R: Record> {
    table: &'a mut Table<R>,
    undo: Vec<Undo<R>>,
}

impl<R: Record> TxnView<'_, R> {
    /// As [`Table::insert`], with rollback on abort.
    ///
    /// # Errors
    ///
    /// [`DbErrorKind::DuplicateKey`] if the key is already present.
    pub fn insert(&mut self, record: R) -> Result<(), DbError> {
        let key = record.key();
        self.table.insert(record)?;
        self.undo.push(Undo::Remove(key));
        Ok(())
    }

    /// As [`Table::upsert`], with rollback on abort.
    pub fn upsert(&mut self, record: R) -> Option<R> {
        let key = record.key();
        let prev = self.table.upsert(record);
        match &prev {
            Some(p) => self.undo.push(Undo::Restore(p.clone())),
            None => self.undo.push(Undo::Remove(key)),
        }
        prev
    }

    /// As [`Table::get`].
    pub fn get(&self, key: &R::Key) -> Option<&R> {
        self.table.get(key)
    }

    /// As [`Table::contains`].
    pub fn contains(&self, key: &R::Key) -> bool {
        self.table.contains(key)
    }

    /// As [`Table::update`], with rollback on abort.
    ///
    /// # Errors
    ///
    /// [`DbErrorKind::NotFound`] if the key is absent.
    pub fn update(&mut self, key: &R::Key, f: impl FnOnce(&mut R)) -> Result<(), DbError> {
        let prev = self.table.get(key).cloned();
        self.table.update(key, f)?;
        self.undo
            .push(Undo::Restore(prev.expect("update succeeded, row existed")));
        Ok(())
    }

    /// As [`Table::delete`], with rollback on abort.
    ///
    /// # Errors
    ///
    /// [`DbErrorKind::NotFound`] if the key is absent.
    pub fn delete(&mut self, key: &R::Key) -> Result<R, DbError> {
        let removed = self.table.delete(key)?;
        self.undo.push(Undo::Restore(removed.clone()));
        Ok(removed)
    }

    /// As [`Table::scan`].
    pub fn scan<B: RangeBounds<R::Key>>(&self, range: B) -> impl Iterator<Item = &R> {
        self.table.scan(range)
    }

    /// As [`Table::len`].
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if the table has no records.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Kv {
        k: u64,
        v: String,
    }

    impl Record for Kv {
        type Key = u64;
        fn key(&self) -> u64 {
            self.k
        }
    }

    fn kv(k: u64, v: &str) -> Kv {
        Kv { k, v: v.into() }
    }

    #[test]
    fn crud_cycle() {
        let mut t = Table::new("t");
        t.insert(kv(1, "a")).unwrap();
        t.insert(kv(2, "b")).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.contains(&1));
        assert_eq!(t.get(&1).unwrap().v, "a");
        t.update(&1, |r| r.v = "a2".into()).unwrap();
        assert_eq!(t.get(&1).unwrap().v, "a2");
        let removed = t.delete(&2).unwrap();
        assert_eq!(removed.v, "b");
        assert!(!t.contains(&2));
        assert!(!t.is_empty());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = Table::new("t");
        t.insert(kv(1, "a")).unwrap();
        let err = t.insert(kv(1, "b")).unwrap_err();
        assert_eq!(err.kind(), DbErrorKind::DuplicateKey);
        assert_eq!(t.get(&1).unwrap().v, "a");
    }

    #[test]
    fn upsert_replaces() {
        let mut t = Table::new("t");
        assert!(t.upsert(kv(1, "a")).is_none());
        let prev = t.upsert(kv(1, "b")).unwrap();
        assert_eq!(prev.v, "a");
        assert_eq!(t.get(&1).unwrap().v, "b");
    }

    #[test]
    fn missing_key_errors() {
        let mut t: Table<Kv> = Table::new("t");
        assert_eq!(
            t.update(&9, |_| {}).unwrap_err().kind(),
            DbErrorKind::NotFound
        );
        assert_eq!(t.delete(&9).unwrap_err().kind(), DbErrorKind::NotFound);
        assert!(t.get(&9).is_none());
    }

    #[test]
    fn scan_ranges() {
        let mut t = Table::new("t");
        for k in [5u64, 1, 3, 9, 7] {
            t.insert(kv(k, "x")).unwrap();
        }
        let keys: Vec<u64> = t.scan(3..=7).map(|r| r.k).collect();
        assert_eq!(keys, vec![3, 5, 7]);
        let all: Vec<u64> = t.iter().map(|r| r.k).collect();
        assert_eq!(all, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn txn_commits_on_ok() {
        let mut t = Table::new("t");
        let r: Result<u64, DbError> = t.txn(|view| {
            view.insert(kv(1, "a"))?;
            view.insert(kv(2, "b"))?;
            Ok(view.len() as u64)
        });
        assert_eq!(r.unwrap(), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.stats().get("txns"), 1);
    }

    #[test]
    fn txn_rolls_back_inserts() {
        let mut t = Table::new("t");
        t.insert(kv(1, "keep")).unwrap();
        let r: Result<(), &str> = t.txn(|view| {
            view.insert(kv(2, "gone")).map_err(|_| "dup")?;
            Err("boom")
        });
        assert!(r.is_err());
        assert_eq!(t.len(), 1);
        assert!(t.contains(&1));
        assert_eq!(t.stats().get("aborts"), 1);
    }

    #[test]
    fn txn_rolls_back_updates_and_deletes() {
        let mut t = Table::new("t");
        t.insert(kv(1, "orig")).unwrap();
        t.insert(kv(2, "victim")).unwrap();
        let r: Result<(), &str> = t.txn(|view| {
            view.update(&1, |r| r.v = "mutated".into())
                .map_err(|_| "nf")?;
            view.delete(&2).map_err(|_| "nf")?;
            assert!(!view.contains(&2));
            Err("abort")
        });
        assert!(r.is_err());
        assert_eq!(t.get(&1).unwrap().v, "orig");
        assert_eq!(t.get(&2).unwrap().v, "victim");
    }

    #[test]
    fn txn_rolls_back_upsert_chain() {
        let mut t = Table::new("t");
        t.insert(kv(1, "v0")).unwrap();
        let r: Result<(), &str> = t.txn(|view| {
            view.upsert(kv(1, "v1"));
            view.upsert(kv(1, "v2"));
            view.upsert(kv(3, "new"));
            Err("abort")
        });
        assert!(r.is_err());
        assert_eq!(t.get(&1).unwrap().v, "v0");
        assert!(!t.contains(&3));
    }

    #[test]
    fn nested_mutations_commit_in_order() {
        let mut t = Table::new("t");
        let _: Result<(), DbError> = t.txn(|view| {
            view.insert(kv(1, "a"))?;
            view.update(&1, |r| r.v = "b".into())?;
            view.delete(&1)?;
            view.insert(kv(1, "c"))?;
            Ok(())
        });
        assert_eq!(t.get(&1).unwrap().v, "c");
    }

    #[test]
    fn stats_count_writes() {
        let mut t = Table::new("t");
        t.insert(kv(1, "a")).unwrap();
        t.upsert(kv(1, "b"));
        t.update(&1, |_| {}).unwrap();
        t.delete(&1).unwrap();
        assert_eq!(t.stats().get("writes"), 4);
    }
}
