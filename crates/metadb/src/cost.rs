//! Virtual-time cost model for database operations.
//!
//! The paper backs Mnesia with "a 25 GB disk locally attached to that
//! node and formatted with the ext3 file system" and uses disc-copies
//! semantics: reads are served from memory, writes append to a log
//! that is periodically synced. [`DbCostModel`] charges operations
//! accordingly; the metadata service turns these durations into queue
//! demand on its CPU/disk resources.

use simcore::time::SimDuration;

/// Per-operation service demands of the metadata database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbCostModel {
    /// In-memory lookup or range-scan step.
    pub lookup: SimDuration,
    /// In-memory mutation plus log-record append.
    pub write: SimDuration,
    /// Transaction commit bookkeeping.
    pub commit: SimDuration,
    /// Every `sync_every` commits, the log is fsynced to the local
    /// disk (ext3 journal flush).
    pub sync_every: u64,
    /// Cost of that periodic fsync.
    pub sync_cost: SimDuration,
    /// Fixed cost of one sequential append to the write-behind dentry
    /// journal (write-behind mode acks a whole batch on one append).
    pub journal_append: SimDuration,
    /// Per-row cost of serializing a mutation record into that append.
    /// Much cheaper than [`DbCostModel::write`]: the journal is a
    /// sequential log, not an indexed table update.
    pub journal_record: SimDuration,
}

impl DbCostModel {
    /// Service demand of replicating one journal append (carrying
    /// `records` mutation records) onto a hot standby. The standby
    /// replays the identical sequential append, so the cost reuses the
    /// journal terms; what makes it cheap for clients is *where* it is
    /// paid — off the ack path, after the primary's own append. A pure
    /// function of the model (no tracker counters advance), so the
    /// promotion path can re-derive a batch's ship-completion time at
    /// crash time from the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero — an empty append ships nothing.
    pub fn standby_append_cost(&self, records: u64) -> SimDuration {
        assert!(records > 0, "standby append of zero records");
        self.journal_append + self.journal_record * records
    }
}

impl Default for DbCostModel {
    /// Defaults calibrated to Mnesia ram/disc-copies on a 2004-era
    /// blade: single-digit-microsecond ETS lookups, log-append writes,
    /// periodic fsync amortized over 64 commits. The journal terms
    /// price one sequential log append (batch-fixed base plus a cheap
    /// per-record serialization step); they are only charged when
    /// write-behind journaling is enabled upstream.
    fn default() -> Self {
        DbCostModel {
            lookup: SimDuration::from_micros(8),
            write: SimDuration::from_micros(15),
            commit: SimDuration::from_micros(10),
            sync_every: 64,
            sync_cost: SimDuration::from_micros(800),
            journal_append: SimDuration::from_micros(12),
            journal_record: SimDuration::from_micros(1),
        }
    }
}

/// Tracks commit counts so the periodic sync lands deterministically.
#[derive(Debug, Clone, Default)]
pub struct DbCostTracker {
    commits: u64,
    group_commits: u64,
    group_committed_ops: u64,
    reads_charged: u64,
    reads_memoized: u64,
    journal_appends: u64,
    journal_records: u64,
}

impl DbCostTracker {
    /// Creates a tracker with no commits recorded.
    pub fn new() -> Self {
        DbCostTracker::default()
    }

    /// Service demand of a read-only query touching `rows` rows.
    pub fn query_cost(&self, model: &DbCostModel, rows: u64) -> SimDuration {
        model.lookup * rows.max(1)
    }

    /// Service demand of a query whose `memoized` rows were already
    /// resolved earlier in the same batch (per-batch read memoization):
    /// the base cost of [`Self::query_cost`] minus one lookup step per
    /// memoized row. `memoized` is clamped to `rows`, so the result is
    /// never negative and `memoized == 0` is bit-for-bit
    /// [`Self::query_cost`] — the calibrated path. Also advances the
    /// charged/memoized read counters, so reports can show how much of
    /// a batch's row work the memo table absorbed.
    pub fn query_cost_dedup(
        &mut self,
        model: &DbCostModel,
        rows: u64,
        memoized: u64,
    ) -> SimDuration {
        let memoized = memoized.min(rows);
        self.reads_charged += rows - memoized;
        self.reads_memoized += memoized;
        model.lookup * rows.max(1) - model.lookup * memoized
    }

    /// Service demand of a transaction performing `writes` mutations;
    /// advances the commit counter and folds in the periodic sync.
    pub fn txn_cost(&mut self, model: &DbCostModel, writes: u64) -> SimDuration {
        self.commits += 1;
        let mut d = model.commit + model.write * writes.max(1);
        if model.sync_every > 0 && self.commits.is_multiple_of(model.sync_every) {
            d += model.sync_cost;
        }
        d
    }

    /// Service demand of a *group commit*: the write sets of `ops`
    /// independent operations, `writes` rows in all, folded into one
    /// transaction. The log records are still appended per row, but
    /// the commit bookkeeping (and its share of the periodic fsync) is
    /// paid once for the whole group instead of once per operation —
    /// the shard-side half of RPC batching. A group of one is
    /// bit-for-bit [`Self::txn_cost`].
    ///
    /// # Panics
    ///
    /// Panics if `ops` is zero — an empty group has no transaction to
    /// commit.
    pub fn group_txn_cost(&mut self, model: &DbCostModel, writes: u64, ops: u64) -> SimDuration {
        assert!(ops > 0, "group commit of zero operations");
        self.group_commits += 1;
        self.group_committed_ops += ops;
        self.txn_cost(model, writes)
    }

    /// Service demand of one sequential append to the write-behind
    /// journal carrying `records` mutation records (a whole batch's
    /// write set): the fixed append base plus one serialization step
    /// per record. This is the ack-path replacement for
    /// [`Self::group_txn_cost`] — the rows themselves are applied
    /// later, off the critical path. Advances the journal counters.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero — a batch with no writes has
    /// nothing to journal.
    pub fn journal_append_cost(&mut self, model: &DbCostModel, records: u64) -> SimDuration {
        assert!(records > 0, "journal append of zero records");
        self.journal_appends += 1;
        self.journal_records += records;
        model.journal_append + model.journal_record * records
    }

    /// Transactions committed so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Group commits performed so far (each also counts as one commit).
    pub fn group_commits(&self) -> u64 {
        self.group_commits
    }

    /// Operations whose writes were folded into group commits so far.
    pub fn group_committed_ops(&self) -> u64 {
        self.group_committed_ops
    }

    /// Row reads actually charged by [`Self::query_cost_dedup`] so far.
    pub fn reads_charged(&self) -> u64 {
        self.reads_charged
    }

    /// Row reads absorbed by per-batch memoization so far.
    pub fn reads_memoized(&self) -> u64 {
        self.reads_memoized
    }

    /// Write-behind journal appends performed so far (one per acked
    /// mutation batch).
    pub fn journal_appends(&self) -> u64 {
        self.journal_appends
    }

    /// Mutation records written into the journal so far.
    pub fn journal_records(&self) -> u64 {
        self.journal_records
    }

    /// Resets the commit counters (between benchmark phases).
    pub fn reset(&mut self) {
        self.commits = 0;
        self.group_commits = 0;
        self.group_committed_ops = 0;
        self.reads_charged = 0;
        self.reads_memoized = 0;
        self.journal_appends = 0;
        self.journal_records = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_cost_scales_with_rows() {
        let m = DbCostModel::default();
        let t = DbCostTracker::new();
        assert_eq!(t.query_cost(&m, 1), m.lookup);
        assert_eq!(t.query_cost(&m, 10), m.lookup * 10);
        // Zero-row queries still cost one lookup step.
        assert_eq!(t.query_cost(&m, 0), m.lookup);
    }

    #[test]
    fn dedup_query_cost_discounts_memoized_rows() {
        let m = DbCostModel::default();
        let mut t = DbCostTracker::new();
        // No memoized rows: bit-for-bit the plain query cost.
        assert_eq!(t.query_cost_dedup(&m, 5, 0), t.query_cost(&m, 5));
        assert_eq!(t.query_cost_dedup(&m, 0, 0), t.query_cost(&m, 0));
        // Each memoized row saves exactly one lookup step.
        assert_eq!(t.query_cost_dedup(&m, 5, 3), m.lookup * 2);
        // A fully memoized read set costs nothing.
        assert_eq!(t.query_cost_dedup(&m, 4, 4), SimDuration::ZERO);
        // Memoized counts clamp to the rows actually read.
        assert_eq!(t.query_cost_dedup(&m, 2, 10), SimDuration::ZERO);
        assert_eq!(t.reads_charged(), 5 + 2);
        assert_eq!(t.reads_memoized(), 3 + 4 + 2);
        t.reset();
        assert_eq!(t.reads_charged(), 0);
        assert_eq!(t.reads_memoized(), 0);
    }

    #[test]
    fn dedup_never_exceeds_plain_query_cost() {
        let m = DbCostModel::default();
        let mut t = DbCostTracker::new();
        for rows in 0..20u64 {
            for memo in 0..25u64 {
                let plain = t.query_cost(&m, rows);
                assert!(t.query_cost_dedup(&m, rows, memo) <= plain);
            }
        }
    }

    #[test]
    fn txn_cost_includes_periodic_sync() {
        let m = DbCostModel {
            sync_every: 4,
            ..DbCostModel::default()
        };
        let mut t = DbCostTracker::new();
        let base = m.commit + m.write;
        for i in 1..=8u64 {
            let c = t.txn_cost(&m, 1);
            if i % 4 == 0 {
                assert_eq!(c, base + m.sync_cost, "commit {i} syncs");
            } else {
                assert_eq!(c, base, "commit {i} does not sync");
            }
        }
        assert_eq!(t.commits(), 8);
        t.reset();
        assert_eq!(t.commits(), 0);
    }

    #[test]
    fn group_commit_amortizes_commit_and_sync() {
        let m = DbCostModel::default();
        // k single-write transactions vs. one k-op group commit.
        let k = 4u64;
        let mut singles = DbCostTracker::new();
        let single_total: SimDuration = (0..k).map(|_| singles.txn_cost(&m, 1)).sum();
        let mut grouped = DbCostTracker::new();
        let group = grouped.group_txn_cost(&m, 4, 4);
        // Same row work, (k - 1) fewer commits.
        assert_eq!(single_total, group + m.commit * (k - 1));
        assert_eq!(grouped.commits(), 1);
        assert_eq!(grouped.group_commits(), 1);
        assert_eq!(grouped.group_committed_ops(), k);
        // The sync cadence counts transactions, so group commits also
        // stretch the fsync interval over more operations.
        let m = DbCostModel {
            sync_every: 2,
            ..DbCostModel::default()
        };
        let mut t = DbCostTracker::new();
        t.group_txn_cost(&m, 3, 3);
        let second = t.group_txn_cost(&m, 1, 1);
        assert_eq!(second, m.commit + m.write + m.sync_cost);
    }

    #[test]
    fn group_of_one_matches_txn_cost() {
        let m = DbCostModel {
            sync_every: 3,
            ..DbCostModel::default()
        };
        let mut a = DbCostTracker::new();
        let mut b = DbCostTracker::new();
        for w in [1u64, 2, 5, 1, 0, 3] {
            assert_eq!(a.txn_cost(&m, w), b.group_txn_cost(&m, w, 1));
        }
        assert_eq!(a.commits(), b.commits());
    }

    #[test]
    #[should_panic(expected = "group commit of zero operations")]
    fn empty_group_panics() {
        DbCostTracker::new().group_txn_cost(&DbCostModel::default(), 0, 0);
    }

    #[test]
    fn reset_clears_group_counters() {
        let m = DbCostModel::default();
        let mut t = DbCostTracker::new();
        t.group_txn_cost(&m, 2, 2);
        t.reset();
        assert_eq!(t.commits(), 0);
        assert_eq!(t.group_commits(), 0);
        assert_eq!(t.group_committed_ops(), 0);
    }

    #[test]
    fn journal_append_scales_with_records() {
        let m = DbCostModel::default();
        let mut t = DbCostTracker::new();
        assert_eq!(
            t.journal_append_cost(&m, 1),
            m.journal_append + m.journal_record
        );
        assert_eq!(
            t.journal_append_cost(&m, 48),
            m.journal_append + m.journal_record * 48
        );
        assert_eq!(t.journal_appends(), 2);
        assert_eq!(t.journal_records(), 49);
        t.reset();
        assert_eq!(t.journal_appends(), 0);
        assert_eq!(t.journal_records(), 0);
    }

    #[test]
    fn journal_append_undercuts_group_commit() {
        // The whole point of write-behind: acking a batch via one
        // sequential journal append is cheaper than the group commit it
        // defers, for any plausible batch.
        let m = DbCostModel::default();
        let mut t = DbCostTracker::new();
        for ops in 1..=32u64 {
            let append = t.journal_append_cost(&m, 3 * ops);
            let group = t.group_txn_cost(&m, 3 * ops, ops);
            assert!(append < group, "{ops}-op batch: {append:?} vs {group:?}");
        }
    }

    #[test]
    fn journal_append_leaves_commit_cadence_alone() {
        // Journal appends are not commits: they must not advance the
        // periodic-sync counter, or enabling write-behind would shift
        // every later fsync (breaking the bit-for-bit OFF pin's logic).
        let m = DbCostModel {
            sync_every: 2,
            ..DbCostModel::default()
        };
        let mut t = DbCostTracker::new();
        t.journal_append_cost(&m, 5);
        t.journal_append_cost(&m, 5);
        assert_eq!(t.commits(), 0);
        assert_eq!(t.txn_cost(&m, 1), m.commit + m.write);
    }

    #[test]
    #[should_panic(expected = "journal append of zero records")]
    fn empty_journal_append_panics() {
        DbCostTracker::new().journal_append_cost(&DbCostModel::default(), 0);
    }

    #[test]
    fn standby_append_mirrors_journal_append_without_counters() {
        let m = DbCostModel::default();
        let mut t = DbCostTracker::new();
        // Same bytes, same sequential append cost as the primary's.
        assert_eq!(m.standby_append_cost(7), t.journal_append_cost(&m, 7));
        // But a pure model function: no journal counters advance.
        assert_eq!(t.journal_appends(), 1);
        m.standby_append_cost(3);
        assert_eq!(t.journal_appends(), 1);
        assert_eq!(t.journal_records(), 7);
    }

    #[test]
    #[should_panic(expected = "standby append of zero records")]
    fn empty_standby_append_panics() {
        DbCostModel::default().standby_append_cost(0);
    }

    #[test]
    fn sync_disabled_when_every_is_zero() {
        let m = DbCostModel {
            sync_every: 0,
            ..DbCostModel::default()
        };
        let mut t = DbCostTracker::new();
        for _ in 0..100 {
            assert_eq!(t.txn_cost(&m, 1), m.commit + m.write);
        }
    }
}
