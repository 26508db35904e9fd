//! Dense, number-indexed record stores.
//!
//! [`DenseStore`] holds records under numbers it hands out itself, in
//! sequence, and never hands out twice. That is exactly how inode
//! numbers behave in every namespace of this workspace (the reference
//! `MemFs` and the COFS metadata service), so a record is reached by
//! indexing rather than by searching an ordered map: path resolution
//! maps a name to a number once, then jumps straight to the record.
//!
//! Invariants the store relies on, and keeps:
//!
//! - numbers are dense: `first`, `first + 1`, … in allocation order;
//! - a removed number is never reused (its slot stays a tombstone, so a
//!   stale number finds nothing rather than someone else's record);
//! - iteration visits live records in number order, a
//!   platform-independent order (lint rule D003).
//!
//! Records live in fixed-size pages, so growth never moves a record
//! (no double-and-copy of the whole store), and a page whose every
//! record was removed is released.

/// Records per page. A page costs one allocation; the last page is
/// filled in place as numbers are handed out.
const PAGE: usize = 512;

#[derive(Debug, Clone)]
struct Page<T> {
    /// Slots in number order; `None` marks a removed record.
    slots: Vec<Option<T>>,
    /// Live records in this page.
    live: usize,
}

/// A store of records indexed by sequentially allocated, never reused
/// numbers.
///
/// # Examples
///
/// ```
/// use simcore::dense::DenseStore;
///
/// let mut s = DenseStore::new(1);
/// let a = s.push("root");
/// let b = s.push("child");
/// assert_eq!((a, b), (1, 2));
/// assert_eq!(s.remove(a), Some("root"));
/// // A removed number stays empty; the next record gets a fresh one.
/// assert_eq!(s.get(a), None);
/// assert_eq!(s.push("next"), 3);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![(2, &"child"), (3, &"next")]);
/// ```
#[derive(Debug, Clone)]
pub struct DenseStore<T> {
    pages: Vec<Page<T>>,
    first: u64,
    next: u64,
    live: usize,
}

impl<T> DenseStore<T> {
    /// An empty store whose first record will be numbered `first`.
    pub fn new(first: u64) -> Self {
        DenseStore {
            pages: Vec::new(),
            first,
            next: first,
            live: 0,
        }
    }

    /// The number the next [`Self::push`] will hand out.
    pub fn next_index(&self) -> u64 {
        self.next
    }

    /// Stores `value` under a fresh number and returns that number.
    pub fn push(&mut self, value: T) -> u64 {
        let idx = self.next;
        self.next += 1;
        if ((idx - self.first) as usize).is_multiple_of(PAGE) {
            self.pages.push(Page {
                slots: Vec::with_capacity(PAGE),
                live: 0,
            });
        }
        let page = self.pages.last_mut().expect("the tail page has room");
        page.slots.push(Some(value));
        page.live += 1;
        self.live += 1;
        idx
    }

    /// Page and slot of `idx`, if it was ever handed out.
    fn locate(&self, idx: u64) -> Option<(usize, usize)> {
        if idx < self.first || idx >= self.next {
            return None;
        }
        let off = (idx - self.first) as usize;
        Some((off / PAGE, off % PAGE))
    }

    /// The record numbered `idx`, if it is live.
    pub fn get(&self, idx: u64) -> Option<&T> {
        let (p, s) = self.locate(idx)?;
        self.pages[p].slots.get(s)?.as_ref()
    }

    /// Mutable access to the record numbered `idx`, if it is live.
    pub fn get_mut(&mut self, idx: u64) -> Option<&mut T> {
        let (p, s) = self.locate(idx)?;
        self.pages[p].slots.get_mut(s)?.as_mut()
    }

    /// Removes and returns the record numbered `idx`. The number is
    /// retired: it is never handed out again.
    pub fn remove(&mut self, idx: u64) -> Option<T> {
        let (p, s) = self.locate(idx)?;
        let page = &mut self.pages[p];
        let value = page.slots.get_mut(s)?.take()?;
        page.live -= 1;
        self.live -= 1;
        if page.live == 0 && page.slots.len() == PAGE {
            // Every number of this full page is retired: release it.
            // `get` on an empty page finds nothing, like a tombstone.
            page.slots = Vec::new();
        }
        Some(value)
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no record is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live records with their numbers, in number order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let first = self.first;
        self.pages.iter().enumerate().flat_map(move |(p, page)| {
            page.slots.iter().enumerate().filter_map(move |(s, slot)| {
                slot.as_ref().map(|v| (first + (p * PAGE + s) as u64, v))
            })
        })
    }

    /// Live records, in number order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_dense_and_never_reused() {
        let mut s = DenseStore::new(1);
        let nums: Vec<u64> = (0..10).map(|i| s.push(i)).collect();
        assert_eq!(nums, (1..=10).collect::<Vec<_>>());
        assert_eq!(s.remove(4), Some(3));
        assert_eq!(s.remove(4), None, "a retired number stays retired");
        assert_eq!(s.push(99), 11);
        assert_eq!(s.get(4), None);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn out_of_range_numbers_find_nothing() {
        let mut s = DenseStore::new(5);
        assert_eq!(s.get(5), None);
        s.push('a');
        assert_eq!(s.get(4), None);
        assert_eq!(s.get(5), Some(&'a'));
        assert_eq!(s.get(6), None);
        assert_eq!(s.get_mut(0), None);
        assert_eq!(s.remove(6), None);
    }

    #[test]
    fn iterates_in_number_order_across_pages() {
        let mut s = DenseStore::new(1);
        for i in 0..(3 * PAGE as u64) {
            s.push(i);
        }
        for i in (1..=3 * PAGE as u64).step_by(3) {
            s.remove(i);
        }
        let got: Vec<u64> = s.iter().map(|(k, _)| k).collect();
        let want: Vec<u64> = (1..=3 * PAGE as u64).filter(|i| (i - 1) % 3 != 0).collect();
        assert_eq!(got, want);
        assert!(s.iter().all(|(k, &v)| v == k - 1));
        assert_eq!(s.len(), want.len());
    }

    #[test]
    fn emptied_full_pages_are_released() {
        let mut s = DenseStore::new(0);
        for i in 0..(PAGE as u64 + 1) {
            s.push(i);
        }
        for i in 0..PAGE as u64 {
            s.remove(i);
        }
        assert_eq!(s.pages[0].slots.capacity(), 0);
        assert_eq!(s.get(3), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.values().copied().collect::<Vec<_>>(), vec![PAGE as u64]);
        // The tail page keeps accepting records.
        assert_eq!(s.push(7), PAGE as u64 + 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn a_released_tail_page_is_not_refilled() {
        let mut s = DenseStore::new(1);
        for i in 0..PAGE as u64 {
            s.push(i);
        }
        for i in 1..=PAGE as u64 {
            s.remove(i);
        }
        assert!(s.is_empty());
        let n = s.push(42);
        assert_eq!(n, PAGE as u64 + 1);
        assert_eq!(s.get(n), Some(&42));
        assert_eq!(s.get(1), None);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(n, &42)]);
    }
}
