//! The sharded COFS metadata service.
//!
//! The paper frames the virtualization layer as the enabler for
//! "distributing metadata across multiple servers": once clients talk
//! to a metadata *service* instead of the native filesystem, that
//! service can be split into independent shards. [`MdsCluster`] models
//! exactly that: N shards, each with its own CPU queue, its own
//! database cost state, and its own host (and therefore RTT), behind a
//! pluggable [`ShardPolicy`] that partitions the namespace.
//!
//! Semantics vs. cost: the *logical* namespace (the [`Mds`] tables) is
//! kept unified so that every operation sequence produces bit-for-bit
//! the same user-visible outcome regardless of shard count — the
//! differential suite pins this. What the policy partitions is the
//! *work*: which shard's CPU queues the request, which shard's commit
//! log advances, and which host the client pays a round trip to.
//! Cross-shard operations (a `rename` or `link` whose source and
//! destination live on different shards) pay an explicit two-phase
//! commit: both shards prepare, exchange votes over the inter-shard
//! link, and commit — strictly more expensive than the single-shard
//! path, but still atomic in outcome.
//!
//! One pricing path: [`MdsCluster::serve`] prices every request as a
//! list of per-shard *legs*, each a shard and the [`BatchedOp`]s it
//! serves. A single RPC is one leg holding one opaque op, a daemon
//! batch is one leg holding its ops, and a cross-shard operation is two
//! legs (a prepare on each shard, then a commit phase). Every leg runs
//! through one per-shard helper, so the request kinds differ in exactly
//! four places: only a single read takes the read-priority lane, only
//! a batch may journal under write-behind, only a batch counts in
//! [`ShardUsage::batches`], and only a two-leg request counts in
//! [`ShardUsage::two_phase`] and runs the commit phase. Crash recovery
//! and elastic migration price their own shard work.
//!
//! Write-behind journal: each shard keeps one log of acked mutation
//! batches, appended once per batch by [`MdsCluster::serve`]. Its
//! two consumers each keep a per-entry view: the primary's deferred
//! apply (read by the durability clamp, cold-restart replay and
//! [`MdsCluster::apply_horizon`]) and, in standby mode with a fault
//! plan armed, the ship to the hot standby (read by promotion). An
//! entry leaves the apply view when a clamp finds it applied, leaves
//! the ship view when a promotion settles it, and leaves the log once
//! it has left both. Prefix cursors would not be exact: a slow ship can
//! outlive the apply, and a crash re-times only the applies it
//! interrupts.
//!
//! Crash approximation: a scripted crash is processed when a request
//! first reaches its instant, so batches acked after the crash may
//! already be priced. They keep their schedule; only entries acked by
//! the crash and still unapplied move their apply to the resume, which
//! can leave them applying after entries acked later.

use crate::batch::{coalesce_writes, BatchedOp};
use crate::client_cache::{EntryKind, LeaseKey};
use crate::config::{CofsConfig, MdsNetwork, WriteBehindConfig};
use crate::fault::{FaultPlan, FaultStats, MessageDrop, Nack, ShardCrash, ShardPartition};
use crate::mds::{DbOps, Mds, RowKey};
use metadb::cost::DbCostTracker;
use netsim::ids::NodeId;
use simcore::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use vfs::path::VPath;

/// Identifies one shard within an [`MdsCluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub usize);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// Partitions the virtual namespace across metadata shards.
///
/// Implementations must be pure functions of the path *given the
/// policy's current routing state*: the same path always routes to the
/// same shard until the policy itself is reconfigured, and the static
/// policies never reconfigure at all. [`crate::elastic::ElasticPolicy`]
/// reconfigures only at deterministic virtual-time window boundaries
/// (via [`MdsCluster::observe_elastic`]), so experiment runs stay
/// exactly reproducible and a dentry has a single home at any instant.
pub trait ShardPolicy: std::fmt::Debug {
    /// Number of shards this policy routes across.
    fn shard_count(&self) -> usize;

    /// The shard owning the metadata for `path` (its directory entry
    /// and inode record).
    fn shard_of(&self, path: &VPath) -> ShardId;

    /// The shard charged for scanning the *entry list* of directory
    /// `dir`, so `readdir` lands where the children live. Where the
    /// partitioning allows, keep this consistent with
    /// [`Self::shard_of`]: `shard_of(p) == shard_of_entries(parent(p))`
    /// (subtree partitioning necessarily splits the root's entries).
    fn shard_of_entries(&self, dir: &VPath) -> ShardId;

    /// A short label for reports and ablation tables.
    fn label(&self) -> &'static str;

    /// Downcast to the load-adaptive policy, if that is what this is.
    /// The default (`None`) lets the cluster's observation hooks bail
    /// in one branch for every static policy, keeping their paths
    /// bit-for-bit untouched.
    fn as_elastic(&self) -> Option<&crate::elastic::ElasticPolicy> {
        None
    }

    /// Mutable counterpart of [`Self::as_elastic`].
    fn as_elastic_mut(&mut self) -> Option<&mut crate::elastic::ElasticPolicy> {
        None
    }
}

/// Routes everything to shard 0 — bit-for-bit the single-MDS
/// behavior the paper measured.
///
/// # Examples
///
/// ```
/// use cofs::mds_cluster::{ShardId, ShardPolicy, SingleShard};
/// use vfs::path::vpath;
///
/// let p = SingleShard;
/// assert_eq!(p.shard_count(), 1);
/// assert_eq!(p.shard_of(&vpath("/any/where")), ShardId(0));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleShard;

impl ShardPolicy for SingleShard {
    fn shard_count(&self) -> usize {
        1
    }

    fn shard_of(&self, _path: &VPath) -> ShardId {
        ShardId(0)
    }

    fn shard_of_entries(&self, _dir: &VPath) -> ShardId {
        ShardId(0)
    }

    fn label(&self) -> &'static str {
        "single"
    }
}

/// Hashes the *parent directory* of each path to a shard, so all
/// entries of one directory live together and directory-local
/// operations never cross shards.
///
/// # Examples
///
/// ```
/// use cofs::mds_cluster::{HashByParent, ShardPolicy};
/// use vfs::path::vpath;
///
/// let p = HashByParent::new(4);
/// // Siblings share a shard…
/// assert_eq!(p.shard_of(&vpath("/d/a")), p.shard_of(&vpath("/d/b")));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HashByParent {
    shards: usize,
}

impl HashByParent {
    /// Creates the policy for `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        HashByParent { shards }
    }
}

impl ShardPolicy for HashByParent {
    fn shard_count(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, path: &VPath) -> ShardId {
        hash_dir(path.parent_str(), self.shards)
    }

    fn shard_of_entries(&self, dir: &VPath) -> ShardId {
        hash_dir(dir.as_str(), self.shards)
    }

    fn label(&self) -> &'static str {
        "hash-parent"
    }
}

/// The shard whose hash bucket the directory text `dir` falls in: the
/// [`HashByParent`] formula, shared with the elastic policy's home
/// shard.
pub(crate) fn hash_dir(dir: &str, shards: usize) -> ShardId {
    ShardId((stable_hash(dir.as_bytes()) % shards as u64) as usize)
}

/// Subtree (prefix) partitioning: the first path component assigns the
/// *entire* subtree below it to one shard; root-level metadata lives on
/// shard 0. Deep operations then never cross shards, at the price of
/// whole-subtree hotspots.
///
/// # Examples
///
/// ```
/// use cofs::mds_cluster::{ShardPolicy, SubtreePartition};
/// use vfs::path::vpath;
///
/// let p = SubtreePartition::new(4);
/// // Everything under one top-level directory shares a shard.
/// assert_eq!(p.shard_of(&vpath("/proj/a/b")), p.shard_of(&vpath("/proj/z")));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SubtreePartition {
    shards: usize,
}

impl SubtreePartition {
    /// Creates the policy for `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        SubtreePartition { shards }
    }
}

impl ShardPolicy for SubtreePartition {
    fn shard_count(&self) -> usize {
        self.shards
    }

    fn shard_of(&self, path: &VPath) -> ShardId {
        match path.components().next() {
            None => ShardId(0),
            Some(first) => ShardId((stable_hash(first.as_bytes()) % self.shards as u64) as usize),
        }
    }

    fn shard_of_entries(&self, dir: &VPath) -> ShardId {
        // A subtree is wholly owned, entry lists included; the root's
        // entries stay on shard 0 with the root itself.
        self.shard_of(dir)
    }

    fn label(&self) -> &'static str {
        "subtree"
    }
}

/// Per-shard load observed since the last reset (for scenario reports
/// and skew diagnostics).
#[derive(Debug, Clone)]
pub struct ShardUsage {
    /// Which shard.
    pub shard: usize,
    /// Logical metadata operations served (a cross-shard op counts on
    /// both participants).
    pub rpcs: u64,
    /// Cumulative CPU service time delivered.
    pub busy: SimDuration,
    /// Mean queueing delay per CPU acquisition.
    pub mean_wait: SimDuration,
    /// Cross-shard two-phase operations this shard participated in.
    pub two_phase: u64,
    /// Client-cache lease recall messages this shard sent (coherence
    /// traffic of the client-side metadata cache; zero with the cache
    /// off).
    pub recalls: u64,
    /// Batch RPCs served ([`Request::Batch`]; each covers one
    /// or more of the `rpcs` logical operations and group-commits their
    /// writes). Zero with batching off.
    pub batches: u64,
    /// Row reads actually charged against the shard's database
    /// ([`DbCostTracker::reads_charged`]).
    pub reads_charged: u64,
    /// Row reads absorbed by per-batch memoization
    /// ([`DbCostTracker::reads_memoized`]); zero with memoization off.
    pub reads_memoized: u64,
    /// Read RPCs that jumped the priority lane past queued batch lumps
    /// ([`simcore::resource::TwoLaneResource::priority_bypasses`]);
    /// zero with `read_priority` off.
    pub read_bypasses: u64,
    /// Write-behind journal appends performed (one per acked mutation
    /// batch, [`DbCostTracker::journal_appends`]); zero with
    /// write-behind off.
    pub journal_appends: u64,
    /// Row applications absorbed by same-parent sibling coalescing
    /// ([`crate::batch::coalesce_writes`]); zero with write-behind off.
    pub rows_coalesced: u64,
    /// Largest observed ack-to-apply lag — the worst-case
    /// crash-consistency window this shard exposed. Zero with
    /// write-behind off (apply is the ack).
    pub apply_lag: SimDuration,
    /// Elastic directory splits homed on this shard
    /// ([`MdsCluster::observe_elastic`]); zero under static policies.
    pub splits: u64,
    /// Elastic merges (affinity-restoring migrations) homed on this
    /// shard; zero under static policies.
    pub merges: u64,
    /// Elastic migration transfers this shard participated in (as
    /// source or destination); zero under static policies.
    pub migrations: u64,
}

/// One acked batch in a shard's write-behind journal, appended by
/// [`MdsCluster::serve`] for a [`Request::Batch`]. Ordered by ack time
/// by construction (acks come off one CPU queue). The log has two
/// consumers, each with its own per-entry view (see the module docs):
/// the primary's deferred apply and the hot standby's ship.
#[derive(Debug, Clone)]
struct JournalEntry {
    /// When the batch was acked (journal append completed).
    acked: SimTime,
    /// When its coalesced row application finishes on the shard CPU;
    /// `None` once a durability clamp has found it applied.
    applied: Option<SimTime>,
    /// When the standby holds the append durably — a pure function of
    /// the ack time, the inter-shard link, and the standby's append
    /// cost, never of client traffic, so promotion can classify the
    /// batch as shipped or in flight at any crash instant. `None` when
    /// nothing was shipped, or once a promotion has settled the batch.
    shipped: Option<SimTime>,
    /// Operations the batch carried (what the op-count limit bounds).
    ops: u64,
    /// Coalesced rows the batch applies — the replay work a crash
    /// before its apply (or its ship) has to redo.
    rows: u64,
}

impl JournalEntry {
    /// True once both consumers are done with the entry, so the log
    /// can drop it.
    fn settled(&self) -> bool {
        self.applied.is_none() && self.shipped.is_none()
    }
}

/// Post-recovery admission state, created when a shard resumes (or is
/// promoted) with [`crate::config::AdmissionConfig`] enabled. Gates
/// *session re-establishment* only: nodes already re-admitted (or never
/// evicted) pass untouched, so steady-state traffic sees no gate.
#[derive(Debug)]
struct ShardAdmission {
    bucket: TokenBucket,
    /// Nodes granted re-admission (their session insert may lag the
    /// grant by one round trip; this set keeps the grant from being
    /// charged twice).
    admitted: BTreeSet<NodeId>,
}

/// One completed crash window on a shard: the shard refuses requests
/// arriving in `[crashed_at, resume_at)`; `resume_at` includes the
/// priced recovery work (journal scan + replay).
#[derive(Debug, Clone, Copy)]
struct FaultWindow {
    crashed_at: SimTime,
    resume_at: SimTime,
}

/// Armed fault script: events fire in `(at, shard)` order as virtual
/// time passes them (processing piggybacks on request entry points,
/// like the periodic lease sweep).
#[derive(Debug)]
struct FaultState {
    crashes: Vec<ShardCrash>,
    next_crash: usize,
    /// Each scripted drop event paired with how many requests it has
    /// swallowed so far.
    drops: Vec<(MessageDrop, u32)>,
    /// Scripted partitions. Static windows: whether a request at `t` is
    /// refused is a pure predicate, so no cursor or event processing.
    partitions: Vec<ShardPartition>,
}

#[derive(Debug)]
struct Shard {
    cpu: TwoLaneResource,
    tracker: DbCostTracker,
    rpcs: u64,
    two_phase: u64,
    recalls: u64,
    batches: u64,
    rows_coalesced: u64,
    apply_lag: SimDuration,
    /// The write-behind journal (empty with write-behind off).
    journal: Vec<JournalEntry>,
    /// Scan hint for the apply view: no entry before this index is in
    /// it (entries after it may have left it too). Entries never
    /// re-enter the view, so only compaction moves the hint back; it
    /// lets apply-view scans skip the ship-only head the log grows
    /// between promotions.
    apply_from: usize,
    splits: u64,
    merges: u64,
    migrations: u64,
    /// Fencing epoch: bumps on every crash; stale holders (leases,
    /// in-flight rebalances) compare epochs and abort.
    epoch: u64,
    windows: Vec<FaultWindow>,
    crashes: u64,
    nacks: u64,
    drops_hit: u64,
    replayed_ops: u64,
    lost_acked_ops: u64,
    downtime: SimDuration,
    recovery_busy: SimDuration,
    promotions: u64,
    lag_replayed_rows: u64,
    partition_nacks: u64,
    admission_defers: u64,
    /// Post-recovery admission gate; `None` until a crash resumes with
    /// admission control enabled.
    admission: Option<ShardAdmission>,
}

impl Shard {
    fn new(idx: usize) -> Self {
        Shard {
            cpu: TwoLaneResource::new(format!("cofs-mds-{idx}")),
            tracker: DbCostTracker::new(),
            rpcs: 0,
            two_phase: 0,
            recalls: 0,
            batches: 0,
            rows_coalesced: 0,
            apply_lag: SimDuration::ZERO,
            journal: Vec::new(),
            apply_from: 0,
            splits: 0,
            merges: 0,
            migrations: 0,
            epoch: 1,
            windows: Vec::new(),
            crashes: 0,
            nacks: 0,
            drops_hit: 0,
            replayed_ops: 0,
            lost_acked_ops: 0,
            downtime: SimDuration::ZERO,
            recovery_busy: SimDuration::ZERO,
            promotions: 0,
            lag_replayed_rows: 0,
            partition_nacks: 0,
            admission_defers: 0,
            admission: None,
        }
    }

    /// Holds a batch arriving at `t` back until admitting `incoming_ops`
    /// more acked-but-unapplied operations would respect the durability
    /// window — the write-behind analogue of `pipeline_depth` slot
    /// backpressure. Entries whose application finished by the (possibly
    /// delayed) arrival are pruned; while the op budget or the oldest
    /// entry's age is still exceeded, arrival waits for the earliest
    /// outstanding apply to finish.
    fn durability_clamp(
        &mut self,
        wb: &WriteBehindConfig,
        t: SimTime,
        incoming_ops: u64,
    ) -> SimTime {
        let mut t = t;
        loop {
            let mut settled = false;
            for e in &mut self.journal[self.apply_from..] {
                if e.applied.is_some_and(|done| done <= t) {
                    e.applied = None;
                    settled |= e.settled();
                }
            }
            if settled {
                self.drop_settled();
            }
            self.apply_from += self.journal[self.apply_from..]
                .iter()
                .take_while(|e| e.applied.is_none())
                .count();
            let outstanding: u64 = self.apply_view().map(|(e, _)| e.ops).sum();
            let over_ops = outstanding + incoming_ops > wb.max_unapplied_ops;
            let over_age = self
                .apply_view()
                .next()
                .is_some_and(|(e, _)| e.acked + wb.max_unapplied_window < t);
            if !over_ops && !over_age {
                break;
            }
            let Some(earliest) = self.apply_view().map(|(_, done)| done).min() else {
                // A single batch larger than the op budget: nothing
                // outstanding to wait for, admit it (the window bounds
                // *accumulation*, not one batch's size).
                break;
            };
            t = t.max(earliest);
        }
        debug_assert!(
            self.apply_view().next().is_none()
                || (self.apply_view().map(|(e, _)| e.ops).sum::<u64>() + incoming_ops
                    <= wb.max_unapplied_ops
                    && self
                        .apply_view()
                        .all(|(e, _)| e.acked + wb.max_unapplied_window >= t)),
            "acked-but-unapplied work exceeds the durability window"
        );
        t
    }

    /// The journal's apply view: every entry no clamp has yet found
    /// applied, with its apply completion time.
    fn apply_view(&self) -> impl Iterator<Item = (&JournalEntry, SimTime)> {
        self.journal[self.apply_from..]
            .iter()
            .filter_map(|e| e.applied.map(|done| (e, done)))
    }

    /// Drops every entry both consumers are done with.
    fn drop_settled(&mut self) {
        self.journal.retain(|e| !e.settled());
        self.apply_from = 0;
    }

    /// Serves one leg of `req` on this shard: `ops` arriving at
    /// `arrive`. Returns when the leg's reply leaves the shard.
    ///
    /// Every op pays its row reads, less the rows an earlier op of the
    /// leg already resolved when [`crate::batch::BatchConfig::memoize_reads`]
    /// is on; the leg pays [`CofsConfig::mds_service`] once. The writes
    /// then either group-commit on the ack path, or, for a batch under
    /// write-behind, are acked at one journal append and applied right
    /// behind it (see [`MdsCluster::serve`]).
    fn serve_leg(
        &mut self,
        cfg: &CofsConfig,
        req: &Request<'_>,
        ops: &[BatchedOp],
        arrive: SimTime,
        ship: bool,
    ) -> SimTime {
        assert!(!ops.is_empty(), "a request leg carries at least one op");
        let batch = matches!(req, Request::Batch(..));
        self.rpcs += ops.len() as u64;
        self.batches += u64::from(batch);
        self.two_phase += u64::from(matches!(req, Request::TwoPhase(..)));
        let writes: u64 = ops.iter().map(|o| o.db.writes).sum();
        let journal = batch && cfg.write_behind.enabled && writes > 0;
        let arrive = if journal {
            self.durability_clamp(&cfg.write_behind, arrive, ops.len() as u64)
        } else {
            arrive
        };
        let mut seen: HashSet<RowKey> = HashSet::new();
        let mut service = cfg.mds_service;
        for o in ops {
            let memoized = if cfg.batch.memoize_reads {
                o.read_set
                    .keys()
                    .iter()
                    .filter(|&&k| !seen.insert(k))
                    .count() as u64
            } else {
                0
            };
            service += self.tracker.query_cost_dedup(&cfg.db, o.db.reads, memoized);
        }
        if journal {
            // Ack once the ops are journaled; apply the coalesced rows
            // right behind the ack on the same CPU.
            service += self.tracker.journal_append_cost(&cfg.db, writes);
            let acked = self.cpu.acquire(arrive, service).end;
            let cw = coalesce_writes(ops);
            self.rows_coalesced += cw.rows_coalesced;
            let rows: u64 = cw.writes_per_op.iter().sum();
            let writers = cw.writes_per_op.iter().filter(|&&w| w > 0).count() as u64;
            let apply_done = if writers == 0 {
                acked
            } else {
                let apply = self.tracker.group_txn_cost(&cfg.db, rows, writers);
                self.cpu.acquire(acked, apply).end
            };
            self.apply_lag = self.apply_lag.max(apply_done - acked);
            // The append also crosses the inter-shard link and is
            // re-appended on the standby — entirely off the ack path,
            // so the client-visible times above are untouched (the
            // standby-off pin). What the ship time buys is the
            // replication-lag bound: a crash before it must replay this
            // batch onto the promoted standby.
            let shipped =
                ship.then(|| acked + cfg.cross_shard_rtt / 2 + cfg.db.standby_append_cost(writes));
            self.journal.push(JournalEntry {
                acked,
                applied: Some(apply_done),
                shipped,
                ops: ops.len() as u64,
                rows,
            });
            return acked;
        }
        if writes > 0 {
            let writers = ops.iter().filter(|o| o.db.writes > 0).count() as u64;
            service += self.tracker.group_txn_cost(&cfg.db, writes, writers);
        }
        if cfg.read_priority && writes == 0 && matches!(req, Request::Single(..)) {
            self.cpu.acquire_priority(arrive, service).end
        } else {
            self.cpu.acquire(arrive, service).end
        }
    }
}

/// A metadata request, as the per-shard *legs* [`MdsCluster::serve`]
/// prices: each leg is a shard and the [`BatchedOp`]s it serves. Single
/// and two-phase legs each hold one [`BatchedOp::opaque`] op.
///
/// The kind changes the pricing in exactly four ways: only a
/// [`Request::Single`] read may take the priority lane, only a
/// [`Request::Batch`] may journal under write-behind and counts in
/// [`ShardUsage::batches`], and only a [`Request::TwoPhase`] counts in
/// [`ShardUsage::two_phase`] and runs a commit phase.
#[derive(Debug, Clone, Copy)]
pub enum Request<'a> {
    /// One synchronous RPC: one leg holding one op.
    Single(ShardId, DbOps),
    /// A daemon batch: one leg holding its ops, coalesced into one
    /// round trip.
    Batch(ShardId, &'a [BatchedOp]),
    /// A cross-shard operation on `(coordinator, participant)`: two
    /// legs, the coordinator holding the larger half of the split ops.
    TwoPhase((ShardId, ShardId), DbOps),
}

/// N independent metadata shards behind a routing policy.
///
/// # Examples
///
/// ```
/// use cofs::config::{CofsConfig, MdsNetwork};
/// use cofs::mds::DbOps;
/// use cofs::mds_cluster::{HashByParent, MdsCluster, Request};
/// use netsim::ids::NodeId;
/// use simcore::time::{SimDuration, SimTime};
/// use vfs::path::vpath;
///
/// let mut cluster = MdsCluster::new(Box::new(HashByParent::new(4)));
/// let cfg = CofsConfig::default();
/// let net = MdsNetwork::uniform(SimDuration::from_micros(250));
/// let shard = cluster.route(&vpath("/d/f"));
/// let req = Request::Single(shard, DbOps { reads: 3, writes: 2 });
/// let done = cluster.serve(&cfg, &net, NodeId(0), req, SimTime::ZERO);
/// assert!(done > SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct MdsCluster {
    namespace: Mds,
    shards: Vec<Shard>,
    policy: Box<dyn ShardPolicy>,
    sessions: BTreeSet<(NodeId, usize)>,
    /// Outstanding client-cache leases: which nodes may answer which
    /// `(kind, path)` reads locally, and until when. The shard owning
    /// the path recalls these on conflicting mutations. Ordered maps
    /// so recall/revoke visit order is deterministic by construction
    /// (lint rule D003).
    leases: BTreeMap<LeaseKey, BTreeMap<NodeId, SimTime>>,
    /// Last periodic lease-registry sweep (virtual time).
    last_sweep: SimTime,
    /// Sweeps run since the last [`Self::reset_time`].
    lease_sweeps: u64,
    /// Expired lease holders pruned by sweeps since the last
    /// [`Self::reset_time`].
    leases_swept: u64,
    /// Armed fault script, if any. `None` (the empty-plan case) keeps
    /// the admission check on the calibrated path.
    faults: Option<FaultState>,
    /// `(holder, key)` pairs fenced by crashes and not yet drained by
    /// the client side ([`Self::take_fenced_cache_keys`]).
    fenced_pending: Vec<(NodeId, LeaseKey)>,
    /// Leases fenced by crashes since the last [`Self::reset_time`].
    fenced_leases: u64,
    /// Sessions evicted by crashes since the last [`Self::reset_time`].
    fenced_sessions: u64,
    /// Elastic rebalances aborted by crash windows since the last
    /// [`Self::reset_time`].
    elastic_aborts: u64,
}

impl MdsCluster {
    /// Creates a cluster with `policy.shard_count()` empty shards over
    /// a fresh (root-only) namespace.
    pub fn new(policy: Box<dyn ShardPolicy>) -> Self {
        let shards = (0..policy.shard_count()).map(Shard::new).collect();
        MdsCluster {
            namespace: Mds::new(),
            shards,
            policy,
            sessions: BTreeSet::new(),
            leases: BTreeMap::new(),
            last_sweep: SimTime::ZERO,
            lease_sweeps: 0,
            leases_swept: 0,
            faults: None,
            fenced_pending: Vec::new(),
            fenced_leases: 0,
            fenced_sessions: 0,
            elastic_aborts: 0,
        }
    }

    /// The unified logical namespace (the shared truth all shards
    /// serve; see the module docs for the semantics/cost split).
    pub fn namespace(&self) -> &Mds {
        &self.namespace
    }

    /// Mutable access to the logical namespace — callers perform the
    /// operation here, then charge its [`DbOps`] via [`Self::serve`].
    pub fn namespace_mut(&mut self) -> &mut Mds {
        &mut self.namespace
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The routing policy in use.
    pub fn policy(&self) -> &dyn ShardPolicy {
        self.policy.as_ref()
    }

    /// The shard owning `path` under the cluster's policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy routes outside its declared shard count.
    pub fn route(&self, path: &VPath) -> ShardId {
        let s = self.policy.shard_of(path);
        assert!(s.0 < self.shards.len(), "policy routed {path} to {s}");
        s
    }

    /// The shard charged for listing directory `dir`.
    ///
    /// # Panics
    ///
    /// Panics if the policy routes outside its declared shard count.
    pub fn route_entries(&self, dir: &VPath) -> ShardId {
        let s = self.policy.shard_of_entries(dir);
        assert!(s.0 < self.shards.len(), "policy routed {dir} to {s}");
        s
    }

    /// Prices one metadata request and returns when its response
    /// reaches the client. The request is served as its legs (see
    /// [`Request`]), in four steps:
    ///
    /// 1. Session establishment on first contact with each leg's shard,
    ///    the periodic lease sweep, and the trip to leg 0's host.
    /// 2. Each leg in order on its shard's CPU. Leg `i > 0` arrives
    ///    `cross_shard_rtt / 2` after leg 0, and its vote takes as long
    ///    to come back. A leg pays [`CofsConfig::mds_service`] once and
    ///    each op's row reads, deduplicated across the leg's ops when
    ///    [`crate::batch::BatchConfig::memoize_reads`] is on (keyless
    ///    reads are always charged). Its writes are folded into one
    ///    group commit ([`DbCostTracker::group_txn_cost`]), so a single
    ///    op prices exactly like its own transaction.
    /// 3. For two legs, the commit phase: once every vote is in, each
    ///    shard spends `mds_service + db.commit` on the decision, with
    ///    the same hops as step 2.
    /// 4. The reply, half the client's round trip.
    ///
    /// Lane: with [`CofsConfig::read_priority`] on, a
    /// [`Request::Single`] with no writes takes the shard CPU's
    /// priority lane. It bypasses queued — but never in-service — work,
    /// so a synchronous `stat` does not wait out batch lumps ahead of
    /// it. Batches and both two-phase legs always take the FIFO lane.
    ///
    /// Journal: with [`CofsConfig::write_behind`] on, a
    /// [`Request::Batch`] carrying writes is acked at one sequential
    /// journal append ([`DbCostTracker::journal_append_cost`]). Its
    /// rows are applied right behind the ack as deferred shard-CPU
    /// work: one group commit over the batch's coalesced write set
    /// ([`crate::batch::coalesce_writes`]). Later requests queue behind
    /// the apply, but the batch does not wait for its own rows.
    /// Admission is bounded by the durability window: a batch that
    /// would push acked-but-unapplied work past
    /// [`WriteBehindConfig::max_unapplied_ops`], or age the oldest
    /// unapplied batch past [`WriteBehindConfig::max_unapplied_window`],
    /// waits for older applies. Outcomes always come from the unified
    /// namespace, so read-your-writes stays exact. Single requests
    /// (a `readdir` writes its atime) always commit synchronously.
    ///
    /// Atomicity of a two-phase request's *outcome* is inherited from
    /// the unified namespace; what it prices is distributed agreement.
    ///
    /// # Panics
    ///
    /// Panics if a batch is empty or a two-phase request names one
    /// shard twice.
    pub fn serve(
        &mut self,
        cfg: &CofsConfig,
        net: &MdsNetwork,
        node: NodeId,
        req: Request<'_>,
        t: SimTime,
    ) -> SimTime {
        // Lay the request out as legs. The opaque ops of single and
        // two-phase legs live on this frame, so no request allocates.
        let (coordinator, participant);
        let (legs, n) = match req {
            Request::Single(shard, ops) => {
                coordinator = [BatchedOp::opaque(ops)];
                ([(shard, &coordinator[..]); 2], 1)
            }
            Request::Batch(shard, ops) => ([(shard, ops); 2], 1),
            Request::TwoPhase((a, b), ops) => {
                assert_ne!(a, b, "a two-phase request needs two distinct shards");
                // The coordinator keeps the larger half of the row work.
                let half = |up: u64| DbOps {
                    reads: (ops.reads + up) / 2,
                    writes: (ops.writes + up) / 2,
                };
                coordinator = [BatchedOp::opaque(half(1))];
                participant = [BatchedOp::opaque(half(0))];
                ([(a, &coordinator[..]), (b, &participant[..])], 2)
            }
        };
        let legs = &legs[..n];
        // Leg `i > 0` is one inter-shard hop away from leg 0.
        let hop = |i: usize| cfg.cross_shard_rtt / 2 * u64::from(i > 0);
        let mut t = t;
        for &(shard, _) in legs {
            if self.sessions.insert((node, shard.0)) {
                t += cfg.session_cost;
            }
        }
        self.maybe_sweep_leases(cfg, t);
        let rtt = net.shard_rtt(node, legs[0].0);
        let arrive = t + rtt / 2;
        // Ship bookkeeping only matters when a crash could consult it;
        // gating on an armed plan keeps fault-free runs allocation-flat.
        let ship = cfg.standby.enabled && self.faults.is_some();
        let mut done = arrive;
        for (i, &(shard, ops)) in legs.iter().enumerate() {
            let s = &mut self.shards[shard.0];
            done = done.max(s.serve_leg(cfg, &req, ops, arrive + hop(i), ship) + hop(i));
        }
        if n > 1 {
            let voted = done;
            for (i, &(shard, _)) in legs.iter().enumerate() {
                let cpu = &mut self.shards[shard.0].cpu;
                let commit = cpu.acquire(voted + hop(i), cfg.mds_service + cfg.db.commit);
                done = done.max(commit.end + hop(i));
            }
        }
        done + rtt / 2
    }

    // ---- fault injection ---------------------------------------------

    /// Arms a fault script. An empty plan disarms the subsystem
    /// entirely — the admission check ([`Self::shard_available`]) then
    /// short-circuits to the calibrated path, bit-for-bit. Events are
    /// processed in `(at, shard)` order as virtual time passes them.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        if plan.is_empty() {
            self.faults = None;
            return;
        }
        let mut crashes = plan.crashes;
        crashes.sort_by_key(|c| (c.at, c.shard));
        let mut drops = plan.drops;
        drops.sort_by_key(|d| (d.at, d.shard));
        let mut partitions = plan.partitions;
        partitions.sort_by_key(|p| (p.at, p.shard));
        self.faults = Some(FaultState {
            crashes,
            next_crash: 0,
            drops: drops.into_iter().map(|d| (d, 0)).collect(),
            partitions,
        });
    }

    /// True when a non-empty fault plan is armed.
    pub fn fault_active(&self) -> bool {
        self.faults.is_some()
    }

    /// Current fencing epoch of `shard` (starts at 1; bumps on crash).
    pub fn epoch(&self, shard: ShardId) -> u64 {
        self.shards[shard.0].epoch
    }

    /// True when `shard` is inside a crash window at `t`: it refuses
    /// requests from the crash until recovery (including priced journal
    /// replay) completes.
    pub fn is_down(&self, shard: ShardId, t: SimTime) -> bool {
        self.shards[shard.0]
            .windows
            .iter()
            .any(|w| w.crashed_at <= t && t < w.resume_at)
    }

    /// True when `shard` is cut off by a scripted network partition at
    /// `t`. Unlike a crash this never bumps the epoch, evicts sessions,
    /// or fences leases — the process is alive, just unreachable, so a
    /// still-live lease keeps answering on its holder and state survives
    /// the heal untouched.
    pub fn is_isolated(&self, shard: ShardId, t: SimTime) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            f.partitions
                .iter()
                .any(|p| p.shard == shard && p.at <= t && t < p.at + p.heal_after)
        })
    }

    /// Scheduled resume instant of the crash window covering `t` on
    /// `shard`, if any — what a supervisor quotes as retry-after while
    /// the shard is down.
    fn resume_of(&self, shard: ShardId, t: SimTime) -> Option<SimTime> {
        self.shards[shard.0]
            .windows
            .iter()
            .find(|w| w.crashed_at <= t && t < w.resume_at)
            .map(|w| w.resume_at)
    }

    /// Shard-side acceptance decision for a request from `node` landing
    /// at `arrive` (refusals become known to the client at `reply_at`).
    /// Order matters: a crashed shard refuses before its partition state
    /// is even reachable, and admission gates only requests that made it
    /// to a live, connected shard. With admission control enabled a
    /// down-shard refusal quotes the scheduled resume as retry-after
    /// (the supervisor knows the restart schedule); a partition refusal
    /// never quotes one — no supervisor answers across a severed link.
    fn accept(
        &mut self,
        cfg: &CofsConfig,
        node: NodeId,
        shard: ShardId,
        arrive: SimTime,
        reply_at: SimTime,
    ) -> Result<(), Nack> {
        if self.is_down(shard, arrive) {
            let retry_after = if cfg.admission.enabled {
                self.resume_of(shard, arrive)
            } else {
                None
            };
            self.shards[shard.0].nacks += 1;
            return Err(Nack {
                shard,
                at: reply_at,
                retry_after,
            });
        }
        if self.is_isolated(shard, arrive) {
            let s = &mut self.shards[shard.0];
            s.nacks += 1;
            s.partition_nacks += 1;
            return Err(Nack {
                shard,
                at: reply_at,
                retry_after: None,
            });
        }
        if !self.sessions.contains(&(node, shard.0)) {
            if let Some(adm) = self.shards[shard.0].admission.as_mut() {
                if !adm.admitted.contains(&node) {
                    match adm.bucket.admit(arrive) {
                        Admit::Granted => {
                            adm.admitted.insert(node);
                        }
                        Admit::RetryAt(after) => {
                            let s = &mut self.shards[shard.0];
                            s.nacks += 1;
                            s.admission_defers += 1;
                            return Err(Nack {
                                shard,
                                at: reply_at,
                                retry_after: Some(after),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Processes every scripted crash due by `now`. Piggybacks on
    /// request entry points (like the periodic lease sweep), so fault
    /// processing needs no external timer and stays deterministic.
    fn advance_faults(&mut self, cfg: &CofsConfig, now: SimTime) {
        loop {
            let crash = match self.faults.as_mut() {
                Some(f) if f.next_crash < f.crashes.len() && f.crashes[f.next_crash].at <= now => {
                    let c = f.crashes[f.next_crash];
                    f.next_crash += 1;
                    c
                }
                _ => return,
            };
            self.apply_crash(cfg, crash);
        }
    }

    /// Executes one scripted crash: fence the epoch, evict sessions,
    /// fence every lease the shard granted, and price recovery (boot +
    /// journal scan + replay of acked-but-unapplied rows) before the
    /// shard serves traffic again. Survivors re-pay `session_cost` on
    /// next contact, so session re-establishment is charged where it
    /// happens.
    ///
    /// With [`crate::config::StandbyConfig`] enabled the crash is
    /// absorbed by *promoting* the hot standby instead: same fencing
    /// (epoch bump, evictions, lease fences — the old primary's grants
    /// are worthless either way), but service resumes after the fixed
    /// promotion cost plus replay of only the replication-lag suffix —
    /// the journal appends still in flight to the standby at the crash
    /// instant, re-read from the dead primary's durable journal. Fully
    /// shipped batches were already applied by the warm standby, so the
    /// scripted `restart_after` never enters the gap.
    ///
    /// Crash-loop flap clamping: a crash scripted inside the shard's
    /// previous recovery window fires the instant that window ends, so
    /// windows never overlap and downtime sums remain exact.
    fn apply_crash(&mut self, cfg: &CofsConfig, crash: ShardCrash) {
        let shard = crash.shard;
        assert!(
            shard.0 < self.shards.len(),
            "fault plan names unknown {shard}"
        );
        // Windows are pushed in fire order and resume times are monotone
        // under this clamp, so checking the last window suffices.
        let at = self.shards[shard.0]
            .windows
            .last()
            .map_or(crash.at, |w| crash.at.max(w.resume_at));
        self.shards[shard.0].crashes += 1;
        self.shards[shard.0].epoch += 1;
        let before = self.sessions.len();
        self.sessions.retain(|&(_, sh)| sh != shard.0);
        self.fenced_sessions += (before - self.sessions.len()) as u64;
        // Fence every lease this shard granted: the key routes to the
        // crashed shard, so its holders can no longer trust their grant
        // and must revalidate. BTreeMap iteration keeps the order
        // deterministic (lint rule D003).
        let fenced_keys: Vec<LeaseKey> = self
            .leases
            .keys()
            .filter(|key| {
                let owner = match key.0 {
                    EntryKind::Attr | EntryKind::Negative => self.policy.shard_of(&key.1),
                    EntryKind::Dentry => self.policy.shard_of_entries(&key.1),
                };
                owner == shard
            })
            .cloned()
            .collect();
        for key in fenced_keys {
            let Some(holders) = self.leases.remove(&key) else {
                continue;
            };
            let mut holder_list: Vec<NodeId> = holders.into_keys().collect();
            holder_list.sort();
            for holder in holder_list {
                self.fenced_leases += 1;
                self.fenced_pending.push((holder, key.clone()));
            }
        }
        let promote = cfg.standby.enabled;
        let restart_at = if promote {
            at + cfg.standby.promotion_cost
        } else {
            at + crash.restart_after
        };
        let s = &mut self.shards[shard.0];
        // The replay set: batches acked by the crash that the recovering
        // side lacks — unapplied ones on a cold restart, ones still in
        // flight to the standby on a promotion (re-read from the dead
        // primary's durable journal). Later acks keep their schedule
        // (see the module docs).
        let (mut acked_at_crash, mut covered_ops, mut replay_ops) = (0u64, 0u64, 0u64);
        let (mut replay_rows, mut replay_batches) = (0u64, 0u64);
        for e in s.journal.iter().filter(|e| e.acked <= at) {
            let Some(done) = (if promote { e.shipped } else { e.applied }) else {
                continue;
            };
            acked_at_crash += e.ops;
            if done > at {
                replay_ops += e.ops;
                replay_rows += e.rows;
                replay_batches += u64::from(e.rows > 0);
            } else {
                covered_ops += e.ops;
            }
        }
        // Recovery is real work: boot (or leader handoff), scan the
        // journal tail, re-apply the replay set as one group commit.
        // Only then does the shard resume service.
        let mut service = cfg.mds_service + s.tracker.query_cost_dedup(&cfg.db, replay_ops, 0);
        if replay_batches > 0 {
            service += s
                .tracker
                .group_txn_cost(&cfg.db, replay_rows, replay_batches);
        }
        let resume_at = s.cpu.acquire(restart_at, service).end;
        s.recovery_busy += service;
        s.replayed_ops += replay_ops;
        // Canary for the bench gate: every batch acked by the crash is
        // either held by the recovering side or replayed, so the count
        // stays structural.
        s.lost_acked_ops += acked_at_crash - covered_ops - replay_ops;
        if promote {
            s.promotions += 1;
            s.lag_replayed_rows += replay_rows;
        }
        let mut max_lag = s.apply_lag;
        for e in s.journal.iter_mut().filter(|e| e.acked <= at) {
            if e.applied.is_some_and(|done| done > at) {
                e.applied = Some(resume_at);
                max_lag = max_lag.max(resume_at - e.acked);
            }
            if promote {
                // Settled: shipped batches live on the new primary, the
                // lag suffix was just replayed, and the next standby
                // bootstraps from the full journal. Later crashes only
                // ever consult newer acks.
                e.shipped = None;
            }
        }
        s.drop_settled();
        s.apply_lag = max_lag;
        s.downtime += resume_at - at;
        s.windows.push(FaultWindow {
            crashed_at: at,
            resume_at,
        });
        if cfg.admission.enabled {
            // Re-admit evicted sessions through a fresh token bucket
            // anchored at the resume: `sessions_per_window` grants per
            // window, overflow deferred to the next window start. A
            // repeat crash replaces the gate wholesale — the new outage
            // re-evicts everyone anyway.
            s.admission = Some(ShardAdmission {
                bucket: TokenBucket::new(
                    resume_at,
                    cfg.admission.sessions_per_window,
                    cfg.admission.window,
                ),
                admitted: BTreeSet::new(),
            });
        }
    }

    /// Consumes one scripted message drop addressed to `shard` at `t`,
    /// if the script has one pending.
    fn consume_drop(&mut self, shard: ShardId, t: SimTime) -> bool {
        let Some(f) = self.faults.as_mut() else {
            return false;
        };
        for (d, taken) in f.drops.iter_mut() {
            if d.shard == shard && d.at <= t && *taken < d.count {
                *taken += 1;
                return true;
            }
        }
        false
    }

    /// The one fault-admission check every request passes before
    /// [`Self::serve`] prices it. In order: advance the fault script to
    /// the send time `t`, let a scripted message drop swallow the
    /// request (the client learns of it only at
    /// `t + RetryConfig::timeout`), advance the script to the predicted
    /// arrival, and ask the shard to accept. A refusal
    /// carries the failed round trip and any server-supplied
    /// retry-after, and counts as a shard-side NACK; an admission grant
    /// consumed here is remembered, so the op it admits does not pay
    /// twice. With no plan armed it is `Ok` with no side effects, so
    /// callers need no fault-off branch of their own.
    pub fn shard_available(
        &mut self,
        cfg: &CofsConfig,
        net: &MdsNetwork,
        node: NodeId,
        shard: ShardId,
        t: SimTime,
    ) -> Result<(), Nack> {
        if self.faults.is_none() {
            return Ok(());
        }
        self.advance_faults(cfg, t);
        if self.consume_drop(shard, t) {
            self.shards[shard.0].drops_hit += 1;
            return Err(Nack {
                shard,
                at: t + cfg.retry.timeout,
                retry_after: None,
            });
        }
        let rtt = net.shard_rtt(node, shard);
        let arrive = t + rtt / 2;
        self.advance_faults(cfg, arrive);
        self.accept(cfg, node, shard, arrive, t + rtt)
    }

    /// Drains the `(holder, key)` pairs fenced by crashes since the
    /// last call — the client side drops these cache entries, exactly
    /// like recall handling.
    pub fn take_fenced_cache_keys(&mut self) -> Vec<(NodeId, LeaseKey)> {
        std::mem::take(&mut self.fenced_pending)
    }

    /// Aggregated fault/recovery accounting since the last
    /// [`Self::reset_time`].
    pub fn fault_stats(&self) -> FaultStats {
        let mut f = FaultStats {
            fenced_leases: self.fenced_leases,
            fenced_sessions: self.fenced_sessions,
            elastic_aborts: self.elastic_aborts,
            ..FaultStats::default()
        };
        for s in &self.shards {
            f.crashes += s.crashes;
            f.nacks += s.nacks;
            f.drops += s.drops_hit;
            f.replayed_ops += s.replayed_ops;
            f.lost_acked_ops += s.lost_acked_ops;
            f.promotions += s.promotions;
            f.lag_replayed_rows += s.lag_replayed_rows;
            f.admission_defers += s.admission_defers;
            f.partition_nacks += s.partition_nacks;
            f.downtime += s.downtime;
            f.recovery_busy += s.recovery_busy;
        }
        f
    }

    // ---- elastic load observation ------------------------------------

    /// True when the routing policy is the load-adaptive one — lets
    /// callers skip building observation arguments (parent paths) on
    /// the static-policy fast path.
    pub fn is_elastic(&self) -> bool {
        self.policy.as_elastic().is_some()
    }

    /// Feeds one observed operation under directory `dir` at virtual
    /// time `t` into the elastic policy, and prices any split or merge
    /// it decides. A no-op (and allocation-free) under static policies,
    /// so every pinned path is bit-for-bit untouched.
    ///
    /// Observation itself charges no time: the policy piggybacks on
    /// requests the client already paid for. Reconfiguration is the
    /// opposite of free — each [`crate::elastic::ShardTransfer`] scans
    /// the moving dentry rows on the source shard's CPU, crosses the
    /// inter-shard link, and is journaled plus group-committed on the
    /// destination's CPU (the write-behind pricing). The triggering
    /// request does not await the migration, but later requests queue
    /// behind it on both CPUs — exactly like deferred journal applies.
    pub fn observe_elastic(&mut self, cfg: &CofsConfig, dir: &VPath, t: SimTime) {
        let due = match self.policy.as_elastic_mut() {
            Some(p) => p.record(dir, t),
            None => return,
        };
        if !due {
            return;
        }
        // A rebalance that would straddle a crashed or fenced shard
        // aborts and re-enqueues: migrating rows off a dead shard (or
        // under a stale epoch) would "transfer" state the shard can no
        // longer vouch for. The observation window is only reset inside
        // `rebalance`, so the next observed op after recovery
        // re-triggers the decision — abort really is re-enqueue.
        if self.faults.is_some() {
            let pre: Vec<u64> = self.shards.iter().map(|s| s.epoch).collect();
            self.advance_faults(cfg, t);
            let blocked = (0..self.shards.len())
                .any(|i| self.shards[i].epoch != pre[i] || self.is_down(ShardId(i), t));
            if blocked {
                self.elastic_aborts += 1;
                return;
            }
        }
        let loads: Vec<SimDuration> = self.shards.iter().map(|s| s.cpu.busy_time()).collect();
        // The policy's attribution gate needs the *measured* mean
        // per-op service time — database work rides on top of the base
        // RPC service charge, so `mds_service` alone would
        // underestimate a directory's busy contribution several-fold.
        let rpcs: u64 = self.shards.iter().map(|s| s.rpcs).sum();
        let service = if rpcs > 0 {
            let busy = loads.iter().fold(SimDuration::ZERO, |acc, &b| acc + b);
            (busy / rpcs).max(cfg.mds_service)
        } else {
            cfg.mds_service
        };
        let entries = self.namespace.entry_count(dir);
        let event = self
            .policy
            .as_elastic_mut()
            .expect("due observation implies an elastic policy")
            .rebalance(dir, t, &loads, service, entries);
        if let Some(ev) = event {
            match ev.kind {
                crate::elastic::ElasticEventKind::Split => self.shards[ev.home.0].splits += 1,
                crate::elastic::ElasticEventKind::Merge => self.shards[ev.home.0].merges += 1,
            }
            for tr in &ev.transfers {
                // Source side: scan the moving dentry rows.
                let read_done = {
                    let s = &mut self.shards[tr.from.0];
                    s.migrations += 1;
                    let service = cfg.mds_service + s.tracker.query_cost_dedup(&cfg.db, tr.rows, 0);
                    s.cpu.acquire(t, service).end
                };
                // Destination side: the rows cross the inter-shard link,
                // are journaled for the ack, and group-committed into
                // the tables — the same pricing a write-behind batch of
                // `rows` writes pays.
                let arrive = read_done + cfg.cross_shard_rtt / 2;
                let s = &mut self.shards[tr.to.0];
                s.migrations += 1;
                let service = cfg.mds_service
                    + s.tracker.journal_append_cost(&cfg.db, tr.rows)
                    + s.tracker.group_txn_cost(&cfg.db, tr.rows, 1);
                let _ = s.cpu.acquire(arrive, service);
            }
        }
    }

    // ---- client-cache lease tracking ---------------------------------

    /// Records that `node` holds a lease on `key` until `expires`
    /// (granted by the shard owning the path, alongside the read RPC
    /// that populated the client's cache entry).
    pub fn grant_lease(&mut self, node: NodeId, key: LeaseKey, expires: SimTime) {
        self.leases.entry(key).or_default().insert(node, expires);
    }

    /// Voluntarily releases `node`'s lease on `key` (client-side LRU
    /// eviction). Free of charge: the release piggybacks on later
    /// traffic, and a recall that races a release is harmless here
    /// because recalls only ever *remove* state.
    pub fn release_lease(&mut self, node: NodeId, key: &LeaseKey) {
        if let Some(holders) = self.leases.get_mut(key) {
            holders.remove(&node);
            if holders.is_empty() {
                self.leases.remove(key);
            }
        }
    }

    /// Every outstanding lease key on `path` or below it — the set a
    /// `rename` must recall, since the whole subtree changes identity.
    pub fn lease_keys_under(&self, path: &VPath) -> Vec<LeaseKey> {
        let mut keys: Vec<LeaseKey> = self
            .leases
            .keys()
            .filter(|(_, p)| p.starts_with(path))
            .cloned()
            .collect();
        // Deterministic recall order regardless of map iteration.
        keys.sort();
        keys
    }

    /// Recalls every live lease on `keys` because `mutator` performed
    /// a conflicting operation at time `t`. Each *remote* holder is
    /// sent one recall message from the shard owning the key's path;
    /// recalls fan out in parallel, so the mutation completes at
    /// `t + max(recall RTT)` once all acks are in. The mutator's own
    /// leases are dropped locally at no cost, and leases already
    /// expired at `t` are pruned without traffic.
    ///
    /// Returns the completion time and every `(holder, key)` pair
    /// whose client-cache entry must now be dropped, in deterministic
    /// order. With no live remote holders this is free: `t` unchanged.
    pub fn recall_leases(
        &mut self,
        net: &MdsNetwork,
        mutator: NodeId,
        keys: &[LeaseKey],
        t: SimTime,
    ) -> (SimTime, Vec<(NodeId, LeaseKey)>) {
        let mut dropped = Vec::new();
        let mut done = t;
        for key in keys {
            let Some(holders) = self.leases.remove(key) else {
                continue;
            };
            let shard = match key.0 {
                EntryKind::Attr | EntryKind::Negative => self.route(&key.1),
                EntryKind::Dentry => self.route_entries(&key.1),
            };
            let mut holder_list: Vec<(NodeId, SimTime)> = holders.into_iter().collect();
            holder_list.sort();
            for (holder, expires) in holder_list {
                if holder == mutator || expires <= t {
                    // Local drop / already lapsed: no message needed,
                    // but the cache entry still goes away.
                    if holder == mutator {
                        dropped.push((holder, key.clone()));
                    }
                    continue;
                }
                self.shards[shard.0].recalls += 1;
                done = done.max(t + net.shard_rtt(holder, shard));
                dropped.push((holder, key.clone()));
            }
        }
        (done, dropped)
    }

    /// Total recall messages sent by all shards since the last
    /// [`Self::reset_time`].
    pub fn recall_count(&self) -> u64 {
        self.shards.iter().map(|s| s.recalls).sum()
    }

    /// Runs the periodic lease-registry sweep when
    /// `cfg.lease_sweep_interval` has lapsed since the last one.
    /// Invoked from every RPC entry point, so a busy cluster prunes on
    /// its own cadence without an external timer.
    fn maybe_sweep_leases(&mut self, cfg: &CofsConfig, now: SimTime) {
        if cfg.lease_sweep_interval.is_zero() {
            return;
        }
        if now < self.last_sweep + cfg.lease_sweep_interval {
            return;
        }
        self.last_sweep = now;
        self.sweep_expired_leases(now);
    }

    /// Prunes every lease holder whose grant expired by `now` from the
    /// registry and returns how many were dropped. Timing-neutral by
    /// construction: [`Self::recall_leases`] already skips expired
    /// holders without traffic, so sweeping only bounds the registry's
    /// memory under churn (the ROADMAP's lease-table-growth item).
    pub fn sweep_expired_leases(&mut self, now: SimTime) -> u64 {
        let mut swept = 0u64;
        self.leases.retain(|_, holders| {
            let before = holders.len();
            holders.retain(|_, &mut expires| expires > now);
            swept += (before - holders.len()) as u64;
            !holders.is_empty()
        });
        self.lease_sweeps += 1;
        self.leases_swept += swept;
        swept
    }

    /// Sweeps run since the last [`Self::reset_time`].
    pub fn lease_sweep_count(&self) -> u64 {
        self.lease_sweeps
    }

    /// Expired lease holders pruned by sweeps since the last
    /// [`Self::reset_time`].
    pub fn leases_swept(&self) -> u64 {
        self.leases_swept
    }

    /// Outstanding lease holders currently tracked (over all keys) —
    /// the registry size the sweep bounds.
    pub fn lease_holder_count(&self) -> usize {
        self.leases.values().map(|h| h.len()).sum()
    }

    /// Per-shard load since the last [`Self::reset_time`].
    pub fn usage(&self) -> Vec<ShardUsage> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardUsage {
                shard: i,
                rpcs: s.rpcs,
                busy: s.cpu.busy_time(),
                mean_wait: s.cpu.mean_wait(),
                two_phase: s.two_phase,
                recalls: s.recalls,
                batches: s.batches,
                reads_charged: s.tracker.reads_charged(),
                reads_memoized: s.tracker.reads_memoized(),
                read_bypasses: s.cpu.priority_bypasses(),
                journal_appends: s.tracker.journal_appends(),
                rows_coalesced: s.rows_coalesced,
                apply_lag: s.apply_lag,
                splits: s.splits,
                merges: s.merges,
                migrations: s.migrations,
            })
            .collect()
    }

    /// When the last acked-but-unapplied batch across all shards
    /// finishes applying — the end of the cluster's crash-consistency
    /// window. Equals `horizon` when nothing is outstanding (write
    /// behind off, or every journal entry already applied): the ack is
    /// the apply.
    pub fn apply_horizon(&self, horizon: SimTime) -> SimTime {
        self.shards
            .iter()
            .flat_map(|s| s.apply_view().map(|(_, done)| done))
            .fold(horizon, SimTime::max)
    }

    /// Acked-but-unapplied operations outstanding across all shards at
    /// virtual time `t` — the quantity
    /// [`WriteBehindConfig::max_unapplied_ops`] bounds (the apply view
    /// is pruned lazily, so this filters by apply completion rather
    /// than trusting the raw view). Zero with write-behind off.
    pub fn unapplied_ops_at(&self, t: SimTime) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| s.apply_view())
            .filter(|&(_, done)| done > t)
            .map(|(e, _)| e.ops)
            .sum()
    }

    /// Rewinds every shard to its freshly built state — queue, cost
    /// state, journal, epoch and counters — at virtual time zero
    /// (between benchmark phases). Sessions survive, as in the
    /// single-MDS model: establishment is paid once per node per shard.
    /// Outstanding leases survive too (they are client state, like
    /// sessions); only the traffic counters rewind.
    pub fn reset_time(&mut self) {
        self.shards = (0..self.shards.len()).map(Shard::new).collect();
        self.last_sweep = SimTime::ZERO;
        self.lease_sweeps = 0;
        self.leases_swept = 0;
        // The fault script is anchored in virtual time: re-arm it so
        // plans written against the measured phase replay from zero.
        self.fenced_pending.clear();
        self.fenced_leases = 0;
        self.fenced_sessions = 0;
        self.elastic_aborts = 0;
        if let Some(f) = self.faults.as_mut() {
            f.next_crash = 0;
            for (_, taken) in f.drops.iter_mut() {
                *taken = 0;
            }
        }
        // The elastic policy's observation windows are anchored in
        // virtual time and must rewind with it; its bucket tables
        // survive, like sessions and leases.
        if let Some(p) = self.policy.as_elastic_mut() {
            p.reset_time();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::path::vpath;

    fn cfg() -> CofsConfig {
        CofsConfig::default()
    }

    fn net() -> MdsNetwork {
        MdsNetwork::uniform(SimDuration::from_micros(250))
    }

    #[test]
    fn single_shard_matches_legacy_rpc_math() {
        // Replicate the pre-cluster arithmetic by hand and require
        // bit-for-bit agreement.
        let c = cfg();
        let n = net();
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        let ops = DbOps {
            reads: 4,
            writes: 3,
        };
        let got = cluster.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), ops),
            SimTime::ZERO,
        );
        let mut cpu = FifoResource::new("legacy");
        let mut tracker = DbCostTracker::new();
        let t = SimTime::ZERO + c.session_cost;
        let rtt = SimDuration::from_micros(250);
        let arrive = t + rtt / 2;
        let service = c.mds_service
            + tracker.query_cost(&c.db, ops.reads)
            + tracker.txn_cost(&c.db, ops.writes);
        let expect = cpu.acquire(arrive, service).end + rtt / 2;
        assert_eq!(got, expect);
    }

    #[test]
    fn session_cost_paid_once_per_node_per_shard() {
        let c = cfg();
        let n = net();
        let mut cluster = MdsCluster::new(Box::new(HashByParent::new(2)));
        let ops = DbOps {
            reads: 1,
            writes: 0,
        };
        let first = cluster.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), ops),
            SimTime::ZERO,
        );
        cluster.reset_time();
        let second = cluster.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), ops),
            SimTime::ZERO,
        );
        assert_eq!(first, second + c.session_cost);
        // A different shard is a different session.
        cluster.reset_time();
        let other = cluster.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(1), ops),
            SimTime::ZERO,
        );
        assert_eq!(other, first);
    }

    #[test]
    fn policies_are_pure_and_in_range() {
        let paths = [
            vpath("/a/b/c"),
            vpath("/a/b"),
            vpath("/x"),
            VPath::root(),
            vpath("/deep/er/still/more"),
        ];
        for shards in [1usize, 2, 4, 7] {
            let policies: Vec<Box<dyn ShardPolicy>> = vec![
                Box::new(SingleShard),
                Box::new(HashByParent::new(shards)),
                Box::new(SubtreePartition::new(shards)),
                Box::new(crate::elastic::ElasticPolicy::new(
                    shards,
                    crate::elastic::ElasticConfig::default(),
                )),
            ];
            for p in &policies {
                for path in &paths {
                    let s = p.shard_of(path);
                    assert!(s.0 < p.shard_count(), "{p:?} routed {path} to {s}");
                    assert_eq!(s, p.shard_of(path), "routing must be deterministic");
                }
            }
        }
    }

    #[test]
    fn hash_by_parent_keeps_siblings_together_and_spreads_dirs() {
        let p = HashByParent::new(4);
        assert_eq!(p.shard_of(&vpath("/d0/a")), p.shard_of(&vpath("/d0/b")));
        // Many distinct parents must not all collapse onto one shard.
        let mut seen = HashSet::new();
        for i in 0..32 {
            seen.insert(p.shard_of(&vpath(&format!("/dir{i}/f"))));
        }
        assert!(
            seen.len() >= 3,
            "32 dirs should spread over 4 shards: {seen:?}"
        );
    }

    #[test]
    fn subtree_keeps_whole_trees_together() {
        let p = SubtreePartition::new(4);
        let top = p.shard_of(&vpath("/proj"));
        assert_eq!(p.shard_of(&vpath("/proj/a")), top);
        assert_eq!(p.shard_of(&vpath("/proj/a/b/c")), top);
        assert_eq!(p.shard_of(&VPath::root()), ShardId(0));
    }

    #[test]
    fn cross_shard_costs_more_than_single_shard() {
        let c = cfg();
        let n = net();
        let ops = DbOps {
            reads: 6,
            writes: 5,
        };
        let mut one = MdsCluster::new(Box::new(SingleShard));
        // Burn the session costs first so the comparison is steady-state.
        one.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), DbOps::default()),
            SimTime::ZERO,
        );
        one.reset_time();
        let single = one.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), ops),
            SimTime::ZERO,
        );

        let mut two = MdsCluster::new(Box::new(HashByParent::new(2)));
        two.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), DbOps::default()),
            SimTime::ZERO,
        );
        two.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(1), DbOps::default()),
            SimTime::ZERO,
        );
        two.reset_time();
        let cross = two.serve(
            &c,
            &n,
            NodeId(0),
            Request::TwoPhase((ShardId(0), ShardId(1)), ops),
            SimTime::ZERO,
        );
        assert!(
            cross > single,
            "two-phase must cost more: {cross:?} vs {single:?}"
        );
        let usage = two.usage();
        assert_eq!(usage[0].two_phase, 1);
        assert_eq!(usage[1].two_phase, 1);
    }

    #[test]
    fn recalls_charge_remote_holders_only() {
        let c = cfg();
        let n = net();
        let mut cluster = MdsCluster::new(Box::new(HashByParent::new(2)));
        let key = (EntryKind::Attr, vpath("/d/f"));
        let far = SimTime::from_secs(10);
        cluster.grant_lease(NodeId(0), key.clone(), far);
        cluster.grant_lease(NodeId(1), key.clone(), far);
        cluster.grant_lease(NodeId(2), key.clone(), SimTime::from_millis(1));
        // Node 0 mutates at t=5ms: node 1 is messaged, node 2's lease
        // already lapsed, node 0 drops locally.
        let t = SimTime::from_millis(5);
        let (done, dropped) = cluster.recall_leases(&n, NodeId(0), std::slice::from_ref(&key), t);
        assert_eq!(done, t + SimDuration::from_micros(250));
        assert_eq!(
            dropped,
            vec![(NodeId(0), key.clone()), (NodeId(1), key.clone())]
        );
        assert_eq!(cluster.recall_count(), 1);
        // The registry forgot the key entirely; a second recall is free.
        let (done2, dropped2) = cluster.recall_leases(&n, NodeId(0), &[key], t);
        assert_eq!(done2, t);
        assert!(dropped2.is_empty());
        let _ = c;
    }

    #[test]
    fn release_and_subtree_key_scan() {
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        let far = SimTime::from_secs(10);
        for p in ["/a/x", "/a/y/z", "/b/x"] {
            cluster.grant_lease(NodeId(0), (EntryKind::Attr, vpath(p)), far);
        }
        cluster.grant_lease(NodeId(0), (EntryKind::Dentry, vpath("/a")), far);
        let under_a = cluster.lease_keys_under(&vpath("/a"));
        assert_eq!(under_a.len(), 3);
        assert!(under_a.iter().all(|(_, p)| p.starts_with(&vpath("/a"))));
        cluster.release_lease(NodeId(0), &(EntryKind::Dentry, vpath("/a")));
        assert_eq!(cluster.lease_keys_under(&vpath("/a")).len(), 2);
        // Releasing an unknown lease is a no-op.
        cluster.release_lease(NodeId(9), &(EntryKind::Attr, vpath("/nope")));
    }

    #[test]
    fn batch_of_one_matches_rpc_bit_for_bit() {
        let c = cfg();
        let n = net();
        let mut plain = MdsCluster::new(Box::new(HashByParent::new(2)));
        let mut batched = MdsCluster::new(Box::new(HashByParent::new(2)));
        let mut tp = SimTime::ZERO;
        let mut tb = SimTime::ZERO;
        for (reads, writes) in [(3u64, 2u64), (1, 0), (5, 4), (0, 1)] {
            let ops = DbOps { reads, writes };
            tp = plain.serve(&c, &n, NodeId(0), Request::Single(ShardId(1), ops), tp);
            tb = batched.serve(
                &c,
                &n,
                NodeId(0),
                Request::Batch(ShardId(1), &[BatchedOp::opaque(ops)]),
                tb,
            );
            assert_eq!(tp, tb, "singleton batches must reprice nothing");
        }
        assert_eq!(plain.usage()[1].rpcs, batched.usage()[1].rpcs);
        assert_eq!(batched.usage()[1].batches, 4);
        assert_eq!(plain.usage()[1].batches, 0);
    }

    #[test]
    fn batch_amortizes_per_rpc_overhead_and_commit() {
        let c = cfg();
        let n = net();
        let ops = DbOps {
            reads: 2,
            writes: 2,
        };
        let k = 4usize;
        // k sequential single-op RPCs (client waits for each response).
        let mut seq = MdsCluster::new(Box::new(SingleShard));
        let mut t = SimTime::ZERO;
        for _ in 0..k {
            t = seq.serve(&c, &n, NodeId(0), Request::Single(ShardId(0), ops), t);
        }
        // One k-op batch RPC.
        let mut grp = MdsCluster::new(Box::new(SingleShard));
        let batched = grp.serve(
            &c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &vec![BatchedOp::opaque(ops); k]),
            SimTime::ZERO,
        );
        assert!(
            batched < t,
            "batch must beat sequential RPCs: {batched:?} vs {t:?}"
        );
        // Shard CPU demand shrinks by the amortized per-RPC overhead
        // and the (k - 1) saved commits.
        let saved = (c.mds_service + c.db.commit) * (k as u64 - 1);
        assert_eq!(grp.usage()[0].busy + saved, seq.usage()[0].busy);
        assert_eq!(grp.usage()[0].rpcs, k as u64);
        assert_eq!(grp.usage()[0].batches, 1);
    }

    #[test]
    fn memoized_batch_charges_each_distinct_row_once() {
        use crate::mds::ReadSet;

        let c = cfg();
        let memo_cfg = CofsConfig {
            batch: crate::batch::BatchConfig::enabled(16, SimDuration::from_millis(5), 4)
                .with_memoized_reads(),
            ..cfg()
        };
        let n = net();
        // Four creates into the same parent: each reads the 2-row chain
        // of /d plus 3 private rows (5 reads total, 2 keyed).
        let chain = ReadSet::resolution_chain(&vpath("/d/f"));
        assert_eq!(chain.len(), 2);
        let op = BatchedOp {
            db: DbOps {
                reads: 5,
                writes: 2,
            },
            read_set: chain,
            ..BatchedOp::default()
        };
        let batch = vec![op; 4];
        let mut plain = MdsCluster::new(Box::new(SingleShard));
        let mut memo = MdsCluster::new(Box::new(SingleShard));
        let t_plain = plain.serve(
            &c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch),
            SimTime::ZERO,
        );
        let t_memo = memo.serve(
            &memo_cfg,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch),
            SimTime::ZERO,
        );
        // Three repeat resolutions of the 2-row chain are absorbed.
        let saved = c.db.lookup * 2 * 3;
        assert_eq!(t_plain, t_memo + saved);
        assert_eq!(memo.usage()[0].reads_memoized, 6);
        assert_eq!(memo.usage()[0].reads_charged, 4 * 5 - 6);
        assert_eq!(plain.usage()[0].reads_memoized, 0);
        assert_eq!(plain.usage()[0].reads_charged, 20);
        // A memoized batch of one reprices nothing: its keys are
        // distinct by construction.
        let mut one_memo = MdsCluster::new(Box::new(SingleShard));
        let mut one_plain = MdsCluster::new(Box::new(SingleShard));
        let a = one_memo.serve(
            &memo_cfg,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch[..1]),
            SimTime::ZERO,
        );
        let b = one_plain.serve(
            &c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch[..1]),
            SimTime::ZERO,
        );
        assert_eq!(a, b);
        assert_eq!(one_memo.usage()[0].reads_memoized, 0);
    }

    fn wb_cfg() -> CofsConfig {
        let mut c = CofsConfig {
            batch: crate::batch::BatchConfig::enabled(16, SimDuration::from_millis(5), 4),
            ..cfg()
        };
        c.write_behind = WriteBehindConfig::enabled();
        c
    }

    /// A create-like batched op: `reads` keyless reads, 3 writes of
    /// which the shared `parent` row is coalescable.
    fn create_op(parent: RowKey) -> BatchedOp {
        BatchedOp {
            db: DbOps {
                reads: 2,
                writes: 3,
            },
            write_set: crate::mds::WriteSet::from_keys([parent]),
            ..BatchedOp::default()
        }
    }

    #[test]
    fn write_behind_acks_at_journal_append_and_applies_behind() {
        let c = wb_cfg();
        let n = net();
        let batch: Vec<BatchedOp> = (0..4).map(|_| create_op(42)).collect();
        let mut wb = MdsCluster::new(Box::new(SingleShard));
        let ack = wb.serve(
            &c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch),
            SimTime::ZERO,
        );
        // Hand arithmetic: session + half RTT, then service = per-batch
        // overhead + 4 keyless 2-row reads + one journal append of the
        // 12-record write set. The group commit is NOT in the ack.
        let arrive = SimTime::ZERO + c.session_cost + SimDuration::from_micros(125);
        let service =
            c.mds_service + c.db.lookup * 2 * 4 + c.db.journal_append + c.db.journal_record * 12;
        let expect_ack = arrive + service + SimDuration::from_micros(125);
        assert_eq!(ack, expect_ack);
        // The deferred apply group-commits the coalesced rows (3 + 2 +
        // 2 + 2 = 9 of the raw 12) right behind the ack.
        let apply = c.db.commit + c.db.write * 9;
        let acked_at = ack - SimDuration::from_micros(125);
        assert_eq!(wb.apply_horizon(acked_at), acked_at + apply);
        let u = &wb.usage()[0];
        assert_eq!(u.journal_appends, 1);
        assert_eq!(u.rows_coalesced, 3);
        assert_eq!(u.apply_lag, apply);
        // The shard CPU still did the apply work (busy includes it).
        assert_eq!(u.busy, service + apply);
        // And the ack beats the synchronous group-commit pricing.
        let mut sync = MdsCluster::new(Box::new(SingleShard));
        let base = CofsConfig {
            batch: c.batch.clone(),
            ..cfg()
        };
        let done = sync.serve(
            &base,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch),
            SimTime::ZERO,
        );
        assert!(ack < done, "{ack:?} vs {done:?}");
        assert_eq!(sync.usage()[0].journal_appends, 0);
        assert_eq!(sync.usage()[0].rows_coalesced, 0);
        assert_eq!(sync.usage()[0].apply_lag, SimDuration::ZERO);
    }

    #[test]
    fn write_behind_read_only_batch_takes_the_calibrated_path() {
        let c = wb_cfg();
        let base = CofsConfig {
            batch: c.batch.clone(),
            ..cfg()
        };
        let n = net();
        let reads: Vec<BatchedOp> = vec![
            BatchedOp::opaque(DbOps {
                reads: 3,
                writes: 0,
            });
            5
        ];
        let mut wb = MdsCluster::new(Box::new(SingleShard));
        let mut plain = MdsCluster::new(Box::new(SingleShard));
        let a = wb.serve(
            &c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &reads),
            SimTime::ZERO,
        );
        let b = plain.serve(
            &base,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &reads),
            SimTime::ZERO,
        );
        assert_eq!(a, b, "nothing to journal, nothing to defer");
        assert_eq!(wb.usage()[0].journal_appends, 0);
        assert_eq!(wb.apply_horizon(a), a);
    }

    #[test]
    fn durability_window_bounds_acked_but_unapplied_work() {
        let mut c = wb_cfg();
        c.write_behind.max_unapplied_ops = 4; // exactly one batch
        let n = net();
        let batch: Vec<BatchedOp> = (0..4).map(|_| create_op(7)).collect();
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        let mut t = SimTime::ZERO;
        let mut acks = Vec::new();
        for _ in 0..6 {
            t = cluster.serve(&c, &n, NodeId(0), Request::Batch(ShardId(0), &batch), t);
            acks.push(t);
            let acked_at = t - SimDuration::from_micros(125);
            assert!(
                cluster.unapplied_ops_at(acked_at) <= c.write_behind.max_unapplied_ops,
                "outstanding work exceeds the durability window at {acked_at:?}"
            );
        }
        // Acks advance strictly: each admission waited out the prior
        // batch's apply (the window here is exactly one batch).
        for pair in acks.windows(2) {
            assert!(pair[1] > pair[0]);
        }
        // The tail apply is visible past the last ack.
        let last_acked = *acks.last().unwrap() - SimDuration::from_micros(125);
        assert!(cluster.apply_horizon(last_acked) > last_acked);
        // reset_time clears the journal bookkeeping.
        cluster.reset_time();
        assert_eq!(cluster.unapplied_ops_at(SimTime::ZERO), 0);
        assert_eq!(cluster.apply_horizon(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(cluster.usage()[0].journal_appends, 0);
        assert_eq!(cluster.usage()[0].apply_lag, SimDuration::ZERO);
    }

    #[test]
    fn oversized_batch_is_admitted_not_deadlocked() {
        // A single batch larger than the op budget must still be
        // served: the window bounds accumulation, not one batch.
        let mut c = wb_cfg();
        c.write_behind.max_unapplied_ops = 2;
        let n = net();
        let batch: Vec<BatchedOp> = (0..8).map(|_| create_op(9)).collect();
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            t = cluster.serve(&c, &n, NodeId(0), Request::Batch(ShardId(0), &batch), t);
        }
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn read_priority_bypasses_queued_batch_lumps() {
        let fifo_cfg = cfg();
        let prio_cfg = CofsConfig {
            read_priority: true,
            ..cfg()
        };
        let n = net();
        let lump: Vec<BatchedOp> = vec![
            BatchedOp::opaque(DbOps {
                reads: 5,
                writes: 2,
            });
            16
        ];
        let read = DbOps {
            reads: 3,
            writes: 0,
        };
        let run = |cfg: &CofsConfig| {
            let mut cluster = MdsCluster::new(Box::new(SingleShard));
            // Two 16-op lumps from node 0: one in service, one queued.
            cluster.serve(
                cfg,
                &n,
                NodeId(0),
                Request::Batch(ShardId(0), &lump),
                SimTime::ZERO,
            );
            cluster.serve(
                cfg,
                &n,
                NodeId(0),
                Request::Batch(ShardId(0), &lump),
                SimTime::ZERO,
            );
            // Node 1's stat arrives while the first lump is in service.
            // (Session establishment shifts its arrival, not the queue.)
            let done = cluster.serve(
                cfg,
                &n,
                NodeId(1),
                Request::Single(ShardId(0), read),
                SimTime::ZERO,
            );
            (done, cluster.usage()[0].read_bypasses)
        };
        let (fifo_done, fifo_bypasses) = run(&fifo_cfg);
        let (prio_done, prio_bypasses) = run(&prio_cfg);
        assert_eq!(fifo_bypasses, 0);
        assert_eq!(prio_bypasses, 1);
        assert!(
            prio_done < fifo_done,
            "the priority lane must skip the queued lump: {prio_done:?} vs {fifo_done:?}"
        );
        // With priority off, the knobless default prices identically —
        // the calibration pin at the RPC level.
        let default_done = run(&cfg()).0;
        assert_eq!(fifo_done, default_done);
    }

    #[test]
    fn read_priority_never_touches_write_rpcs() {
        let prio_cfg = CofsConfig {
            read_priority: true,
            ..cfg()
        };
        let n = net();
        let w = DbOps {
            reads: 2,
            writes: 1,
        };
        let mut a = MdsCluster::new(Box::new(SingleShard));
        let mut b = MdsCluster::new(Box::new(SingleShard));
        let mut ta = SimTime::ZERO;
        let mut tb = SimTime::ZERO;
        for _ in 0..4 {
            ta = a.serve(&cfg(), &n, NodeId(0), Request::Single(ShardId(0), w), ta);
            tb = b.serve(&prio_cfg, &n, NodeId(0), Request::Single(ShardId(0), w), tb);
        }
        assert_eq!(ta, tb, "mutations always take the FIFO lane");
        assert_eq!(b.usage()[0].read_bypasses, 0);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_batch_rpc_panics() {
        let c = cfg();
        let n = net();
        MdsCluster::new(Box::new(SingleShard)).serve(
            &c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &[]),
            SimTime::ZERO,
        );
    }

    #[test]
    fn lease_sweep_prunes_expired_holders_only() {
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        let live = SimTime::from_secs(100);
        for i in 0..10u32 {
            cluster.grant_lease(
                NodeId(i),
                (EntryKind::Attr, vpath(&format!("/f{i}"))),
                SimTime::from_millis(u64::from(i)),
            );
        }
        cluster.grant_lease(NodeId(0), (EntryKind::Attr, vpath("/keep")), live);
        assert_eq!(cluster.lease_holder_count(), 11);
        let swept = cluster.sweep_expired_leases(SimTime::from_millis(20));
        assert_eq!(swept, 10);
        assert_eq!(cluster.lease_holder_count(), 1);
        assert_eq!(cluster.leases_swept(), 10);
        assert_eq!(cluster.lease_sweep_count(), 1);
        cluster.reset_time();
        assert_eq!(cluster.leases_swept(), 0);
        // The surviving lease is untouched.
        assert_eq!(cluster.lease_holder_count(), 1);
    }

    #[test]
    fn periodic_sweep_fires_on_rpc_cadence() {
        let c = cfg(); // default: 10s sweep interval
        let n = net();
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        for i in 0..50u32 {
            cluster.grant_lease(
                NodeId(i),
                (EntryKind::Attr, vpath(&format!("/f{i}"))),
                SimTime::from_secs(1),
            );
        }
        let ops = DbOps {
            reads: 1,
            writes: 0,
        };
        // Before the interval lapses nothing is swept.
        cluster.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), ops),
            SimTime::from_secs(5),
        );
        assert_eq!(cluster.lease_holder_count(), 50);
        // The first RPC past the interval prunes the lapsed grants.
        cluster.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), ops),
            SimTime::from_secs(11),
        );
        assert_eq!(cluster.lease_holder_count(), 0);
        assert_eq!(cluster.leases_swept(), 50);
        // Sweeping is timing-neutral: the same RPC on a sweep-free
        // cluster completes at the identical virtual time.
        let mut quiet = MdsCluster::new(Box::new(SingleShard));
        quiet.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), ops),
            SimTime::from_secs(5),
        );
        let a = cluster.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), ops),
            SimTime::from_secs(12),
        );
        let b = quiet.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), ops),
            SimTime::from_secs(12),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn observe_elastic_is_a_no_op_under_static_policies() {
        let c = cfg();
        let mut cluster = MdsCluster::new(Box::new(HashByParent::new(4)));
        assert!(!cluster.is_elastic());
        for i in 0..1000u64 {
            cluster.observe_elastic(&c, &vpath("/hot"), SimTime::from_micros(i));
        }
        let u = cluster.usage();
        assert!(u.iter().all(|s| s.splits == 0 && s.migrations == 0));
        assert!(u.iter().all(|s| s.busy == SimDuration::ZERO));
    }

    #[test]
    fn observed_hot_directory_splits_and_migration_is_costed() {
        use crate::elastic::{ElasticConfig, ElasticPolicy};

        let c = cfg();
        let mut cluster = MdsCluster::new(Box::new(ElasticPolicy::new(
            4,
            ElasticConfig {
                split_threshold: 8,
                window: SimDuration::from_micros(100),
                ..ElasticConfig::default()
            },
        )));
        assert!(cluster.is_elastic());
        let dir = vpath("/hot");
        let before = cluster.route(&vpath("/hot/f0"));
        for i in 0..200u64 {
            cluster.observe_elastic(&c, &dir, SimTime::from_micros(i));
        }
        let p = cluster.policy().as_elastic().unwrap();
        assert!(p.depth_of(&dir) > 0, "hot window must have split");
        let u = cluster.usage();
        assert_eq!(u.iter().map(|s| s.splits).sum::<u64>(), p.split_events());
        let movers: u64 = u.iter().map(|s| s.migrations).sum();
        assert!(movers > 0, "a split across shards must migrate rows");
        // Migration work landed on real shard CPUs — never free.
        assert!(u.iter().map(|s| s.busy).any(|b| b > SimDuration::ZERO));
        // Routing still lands in range and siblings can now differ.
        let mut seen = HashSet::new();
        for i in 0..32 {
            let s = cluster.route(&vpath(&format!("/hot/f{i}")));
            assert!(s.0 < 4);
            seen.insert(s);
        }
        assert!(seen.len() > 1, "split dir must spread: all on {before}");
        // reset_time clears the counters but keeps the bucket table.
        cluster.reset_time();
        assert!(cluster.usage().iter().all(|s| s.splits == 0));
        assert!(cluster.policy().as_elastic().unwrap().depth_of(&dir) > 0);
    }

    #[test]
    fn usage_reports_per_shard_load() {
        let c = cfg();
        let n = net();
        let mut cluster = MdsCluster::new(Box::new(HashByParent::new(2)));
        let ops = DbOps {
            reads: 2,
            writes: 1,
        };
        for _ in 0..5 {
            cluster.serve(
                &c,
                &n,
                NodeId(0),
                Request::Single(ShardId(1), ops),
                SimTime::ZERO,
            );
        }
        let usage = cluster.usage();
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0].rpcs, 0);
        assert_eq!(usage[1].rpcs, 5);
        assert!(usage[1].busy > SimDuration::ZERO);
        cluster.reset_time();
        assert_eq!(cluster.usage()[1].rpcs, 0);
    }

    /// One single-shard request the way every caller issues it: the
    /// admission check, then the unconditional `serve` it guards.
    fn checked_rpc(
        cluster: &mut MdsCluster,
        c: &CofsConfig,
        n: &MdsNetwork,
        ops: DbOps,
        t: SimTime,
    ) -> Result<SimTime, Nack> {
        cluster.shard_available(c, n, NodeId(0), ShardId(0), t)?;
        Ok(cluster.serve(c, n, NodeId(0), Request::Single(ShardId(0), ops), t))
    }

    #[test]
    fn checked_entry_points_with_no_plan_are_bit_for_bit() {
        let c = cfg();
        let n = net();
        let ops = DbOps {
            reads: 3,
            writes: 2,
        };
        let mut a = MdsCluster::new(Box::new(SingleShard));
        a.arm_faults(FaultPlan::default()); // empty plan never arms
        assert!(!a.fault_active());
        let mut b = MdsCluster::new(Box::new(SingleShard));
        let ta = checked_rpc(&mut a, &c, &n, ops, SimTime::ZERO).unwrap();
        let tb = b.serve(
            &c,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), ops),
            SimTime::ZERO,
        );
        assert_eq!(ta, tb);
        let batch: Vec<BatchedOp> = vec![
            BatchedOp::opaque(DbOps {
                reads: 2,
                writes: 1,
            });
            4
        ];
        assert!(a.shard_available(&c, &n, NodeId(0), ShardId(0), ta).is_ok());
        let ba = a.serve(&c, &n, NodeId(0), Request::Batch(ShardId(0), &batch), ta);
        let bb = b.serve(&c, &n, NodeId(0), Request::Batch(ShardId(0), &batch), tb);
        assert_eq!(ba, bb);
        assert!(a.shard_available(&c, &n, NodeId(0), ShardId(0), ba).is_ok());
        assert_eq!(a.fault_stats(), b.fault_stats());
        assert_eq!(a.epoch(ShardId(0)), 1);
    }

    #[test]
    fn crash_bumps_epoch_nacks_requests_and_refences_sessions() {
        let c = CofsConfig::default().with_fault_plan(FaultPlan::default().crash(
            ShardId(0),
            SimTime::from_millis(10),
            SimDuration::from_millis(5),
        ));
        let n = net();
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        cluster.arm_faults(c.fault.clone());
        let ops = DbOps {
            reads: 1,
            writes: 0,
        };
        let first = checked_rpc(&mut cluster, &c, &n, ops, SimTime::ZERO).unwrap();
        assert!(first > SimTime::ZERO);
        assert_eq!(cluster.epoch(ShardId(0)), 1);
        // A request inside the window is refused after one round trip.
        let nack = checked_rpc(&mut cluster, &c, &n, ops, SimTime::from_millis(12)).unwrap_err();
        assert_eq!(nack.shard, ShardId(0));
        assert_eq!(
            nack.at,
            SimTime::from_millis(12) + SimDuration::from_micros(250)
        );
        assert_eq!(cluster.epoch(ShardId(0)), 2);
        // After recovery the shard serves again; the node's session was
        // fenced at the crash, so it re-pays establishment.
        let after = checked_rpc(&mut cluster, &c, &n, ops, SimTime::from_millis(20)).unwrap();
        let f = cluster.fault_stats();
        assert_eq!(f.crashes, 1);
        assert_eq!(f.nacks, 1);
        assert_eq!(f.fenced_sessions, 1);
        assert_eq!(f.lost_acked_ops, 0);
        assert!(f.downtime >= SimDuration::from_millis(5));
        let mut quiet = MdsCluster::new(Box::new(SingleShard));
        let qc = cfg();
        quiet.serve(
            &qc,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), ops),
            SimTime::ZERO,
        );
        let quiet_after = quiet.serve(
            &qc,
            &n,
            NodeId(0),
            Request::Single(ShardId(0), ops),
            SimTime::from_millis(20),
        );
        assert_eq!(after, quiet_after + qc.session_cost);
    }

    #[test]
    fn crash_fences_every_lease_the_crashed_shard_granted() {
        let plan = FaultPlan::default().crash(
            ShardId(1),
            SimTime::from_millis(5),
            SimDuration::from_millis(1),
        );
        let c = CofsConfig::default().with_fault_plan(plan.clone());
        let n = net();
        let mut cluster = MdsCluster::new(Box::new(HashByParent::new(2)));
        cluster.arm_faults(plan);
        let mut on1 = None;
        let mut on0 = None;
        for i in 0..16 {
            let p = vpath(&format!("/d{i}/f"));
            if cluster.route(&p) == ShardId(1) {
                if on1.is_none() {
                    on1 = Some(p);
                }
            } else if on0.is_none() {
                on0 = Some(p);
            }
        }
        let p1 = on1.expect("some path routes to shard 1");
        let p0 = on0.expect("some path routes to shard 0");
        let far = SimTime::from_secs(10);
        cluster.grant_lease(NodeId(3), (EntryKind::Attr, p1.clone()), far);
        cluster.grant_lease(NodeId(4), (EntryKind::Dentry, p1.parent().unwrap()), far);
        cluster.grant_lease(NodeId(5), (EntryKind::Attr, p0.clone()), far);
        assert_eq!(cluster.lease_holder_count(), 3);
        // Any probe past the crash time processes the script.
        assert!(cluster
            .shard_available(&c, &n, NodeId(0), ShardId(0), SimTime::from_millis(6))
            .is_ok());
        let fenced = cluster.take_fenced_cache_keys();
        assert_eq!(fenced.len(), 2, "both shard-1 leases fence: {fenced:?}");
        assert!(fenced.iter().all(|(_, key)| {
            let owner = match key.0 {
                EntryKind::Attr | EntryKind::Negative => cluster.route(&key.1),
                EntryKind::Dentry => cluster.route_entries(&key.1),
            };
            owner == ShardId(1)
        }));
        // The shard-0 lease survives; the fenced list drains once.
        assert_eq!(cluster.lease_holder_count(), 1);
        assert!(cluster.take_fenced_cache_keys().is_empty());
        assert_eq!(cluster.fault_stats().fenced_leases, 2);
    }

    #[test]
    fn recovery_replays_acked_but_unapplied_batches() {
        // Ack a write-behind batch, crash inside its ack-to-apply
        // window, and require the journal replay to carry every acked
        // op across the crash — priced as real recovery work.
        let c = wb_cfg();
        let n = net();
        let batch: Vec<BatchedOp> = (0..8).map(|_| create_op(42)).collect();
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        let ack = cluster.serve(
            &c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch),
            SimTime::ZERO,
        );
        let acked_server = ack - SimDuration::from_micros(125); // minus rtt/2
        let horizon = cluster.apply_horizon(SimTime::ZERO);
        assert!(horizon > acked_server, "apply must trail the ack");
        let crash_at = acked_server + (horizon - acked_server) / 2;
        let restart = SimDuration::from_millis(1);
        cluster.arm_faults(FaultPlan::default().crash(ShardId(0), crash_at, restart));
        assert!(cluster
            .shard_available(
                &c,
                &n,
                NodeId(0),
                ShardId(0),
                crash_at + SimDuration::from_micros(1)
            )
            .is_err());
        assert!(cluster
            .shard_available(
                &c,
                &n,
                NodeId(0),
                ShardId(0),
                crash_at + SimDuration::from_secs(1)
            )
            .is_ok());
        let f = cluster.fault_stats();
        assert_eq!(f.crashes, 1);
        assert_eq!(f.replayed_ops, 8, "every acked op replays");
        assert_eq!(f.lost_acked_ops, 0, "journal-acked work is never lost");
        assert!(f.recovery_busy > SimDuration::ZERO, "recovery is priced");
        // The replayed rows now apply at recovery completion, and the
        // horizon honestly reflects that.
        assert!(cluster.apply_horizon(SimTime::ZERO) >= crash_at + restart);
    }

    #[test]
    fn scripted_drops_time_out_then_traffic_passes() {
        let plan = FaultPlan::default().drop_messages(ShardId(0), SimTime::ZERO, 2);
        let c = CofsConfig::default().with_fault_plan(plan.clone());
        let n = net();
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        cluster.arm_faults(plan);
        let ops = DbOps {
            reads: 1,
            writes: 0,
        };
        let e1 = checked_rpc(&mut cluster, &c, &n, ops, SimTime::ZERO).unwrap_err();
        assert_eq!(e1.at, SimTime::ZERO + c.retry.timeout);
        let e2 = checked_rpc(&mut cluster, &c, &n, ops, e1.at).unwrap_err();
        let ok = checked_rpc(&mut cluster, &c, &n, ops, e2.at).unwrap();
        assert!(ok > e2.at);
        let f = cluster.fault_stats();
        assert_eq!(f.drops, 2);
        assert_eq!(f.nacks, 0);
        assert_eq!(cluster.epoch(ShardId(0)), 1, "drops never fence");
    }

    #[test]
    fn elastic_rebalance_aborts_through_a_crash_window_and_retriggers() {
        use crate::elastic::{ElasticConfig, ElasticPolicy};

        let plan = FaultPlan::default().crash(
            ShardId(0),
            SimTime::from_micros(50),
            SimDuration::from_micros(100),
        );
        let c = CofsConfig::default().with_fault_plan(plan.clone());
        let mut cluster = MdsCluster::new(Box::new(ElasticPolicy::new(
            4,
            ElasticConfig {
                split_threshold: 8,
                window: SimDuration::from_micros(100),
                ..ElasticConfig::default()
            },
        )));
        cluster.arm_faults(plan);
        let dir = vpath("/hot");
        for i in 0..400u64 {
            cluster.observe_elastic(&c, &dir, SimTime::from_micros(i));
        }
        let f = cluster.fault_stats();
        assert!(
            f.elastic_aborts > 0,
            "a rebalance due inside the crash window must abort"
        );
        assert_eq!(cluster.epoch(ShardId(0)), 2);
        // Abort really was re-enqueue: the observation window stayed
        // pending, so the split landed once the shard recovered.
        assert!(
            cluster.policy().as_elastic().unwrap().depth_of(&dir) > 0,
            "the deferred split must land after recovery"
        );
        let migrations: u64 = cluster.usage().iter().map(|s| s.migrations).sum();
        assert!(migrations > 0, "the landed split still migrates rows");
    }

    #[test]
    fn reset_time_rearms_the_fault_script() {
        let plan = FaultPlan::default().crash(
            ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(1),
        );
        let c = CofsConfig::default().with_fault_plan(plan.clone());
        let n = net();
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        cluster.arm_faults(plan);
        let ops = DbOps {
            reads: 1,
            writes: 0,
        };
        let e1 = checked_rpc(&mut cluster, &c, &n, ops, SimTime::from_millis(1)).unwrap_err();
        assert_eq!(cluster.epoch(ShardId(0)), 2);
        cluster.reset_time();
        assert_eq!(cluster.epoch(ShardId(0)), 1);
        assert_eq!(cluster.fault_stats(), FaultStats::default());
        let e2 = checked_rpc(&mut cluster, &c, &n, ops, SimTime::from_millis(1)).unwrap_err();
        assert_eq!(e1, e2, "the script replays identically after reset");
        assert_eq!(cluster.epoch(ShardId(0)), 2);
    }

    /// Runs one 8-op write-behind batch under `c` and returns
    /// `(server ack, ship_done)` — the instants the journal append was
    /// acked and the standby append would complete.
    fn shipped_batch_times(c: &CofsConfig) -> (SimTime, SimTime) {
        let n = net();
        let batch: Vec<BatchedOp> = (0..8).map(|_| create_op(42)).collect();
        let mut probe = MdsCluster::new(Box::new(SingleShard));
        let ack = probe.serve(
            c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch),
            SimTime::ZERO,
        );
        let acked = ack - SimDuration::from_micros(125); // minus rtt/2
        let ship_done = acked + SimDuration::from_micros(125) + c.db.standby_append_cost(24);
        (acked, ship_done)
    }

    #[test]
    fn promotion_resumes_within_promotion_cost_not_restart_after() {
        // Standby on: the crash is absorbed by promoting the warm
        // standby. The outage is promotion cost plus the lag replay —
        // far below the scripted restart_after the cold path waits out.
        let c = wb_cfg().with_standby();
        let n = net();
        let (acked, ship_done) = shipped_batch_times(&c);
        // Crash while the journal append is still in flight to the
        // standby: the suffix must replay from the durable tail.
        let crash_at = acked + (ship_done - acked) / 2;
        let restart = SimDuration::from_millis(10);
        let plan = FaultPlan::default().crash(ShardId(0), crash_at, restart);
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        cluster.arm_faults(plan);
        let batch: Vec<BatchedOp> = (0..8).map(|_| create_op(42)).collect();
        let ack = cluster.serve(
            &c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch),
            SimTime::ZERO,
        );
        assert_eq!(
            ack,
            acked + SimDuration::from_micros(125),
            "shipping stays off the ack path"
        );
        assert!(cluster
            .shard_available(
                &c,
                &n,
                NodeId(0),
                ShardId(0),
                crash_at + SimDuration::from_micros(1)
            )
            .is_err());
        let f = cluster.fault_stats();
        assert_eq!(f.crashes, 1);
        assert_eq!(f.promotions, 1);
        assert_eq!(f.replayed_ops, 8, "the in-flight ship suffix replays");
        assert_eq!(f.lag_replayed_rows, 17, "the coalesced write set replays");
        assert_eq!(f.lost_acked_ops, 0, "acked work survives the promotion");
        assert!(
            f.downtime >= c.standby.promotion_cost && f.downtime < restart,
            "promotion beats the scripted restart: {:?}",
            f.downtime
        );
        // Fencing is not skipped: the epoch bumps and the writer's
        // session was evicted, exactly as on a cold restart.
        assert_eq!(cluster.epoch(ShardId(0)), 2);
        assert_eq!(f.fenced_sessions, 1);
        assert!(cluster
            .shard_available(&c, &n, NodeId(0), ShardId(0), crash_at + f.downtime)
            .is_ok());
    }

    #[test]
    fn fully_shipped_batches_cost_nothing_at_promotion() {
        // Crash after the standby append landed: the warm standby
        // already applied the batch, so promotion replays nothing.
        let c = wb_cfg().with_standby();
        let n = net();
        let (_, ship_done) = shipped_batch_times(&c);
        let crash_at = ship_done + SimDuration::from_micros(1);
        let plan = FaultPlan::default().crash(ShardId(0), crash_at, SimDuration::from_millis(10));
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        cluster.arm_faults(plan);
        let batch: Vec<BatchedOp> = (0..8).map(|_| create_op(42)).collect();
        cluster.serve(
            &c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch),
            SimTime::ZERO,
        );
        assert!(cluster
            .shard_available(
                &c,
                &n,
                NodeId(0),
                ShardId(0),
                crash_at + SimDuration::from_micros(1)
            )
            .is_err());
        let f = cluster.fault_stats();
        assert_eq!(f.promotions, 1);
        assert_eq!(f.replayed_ops, 0, "nothing was in flight");
        assert_eq!(f.lag_replayed_rows, 0);
        assert_eq!(f.lost_acked_ops, 0);
        // Downtime is exactly promotion + the empty journal-tail scan.
        assert_eq!(
            f.downtime,
            c.standby.promotion_cost + c.mds_service + c.db.lookup
        );
    }

    #[test]
    fn promotion_replays_a_batch_applied_on_the_primary_but_still_shipping() {
        // A slow standby link: batch A is applied on the primary long
        // before its journal append lands on the standby. Batch B
        // arrives after A's apply, so B's durability clamp finds A
        // applied; the crash then lands between A's apply and A's ship.
        // The standby never saw A, so promotion must replay it.
        let c = CofsConfig {
            cross_shard_rtt: SimDuration::from_millis(20),
            ..wb_cfg().with_standby()
        };
        let n = net();
        let batch: Vec<BatchedOp> = (0..8).map(|_| create_op(42)).collect();
        let mut probe = MdsCluster::new(Box::new(SingleShard));
        probe.serve(
            &c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch),
            SimTime::ZERO,
        );
        let a_applied = probe.apply_horizon(SimTime::ZERO);
        // A's ship lag is 10 ms plus the standby append.
        let crash_at = a_applied + SimDuration::from_millis(1);
        let plan = FaultPlan::default().crash(ShardId(0), crash_at, SimDuration::from_millis(10));
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        cluster.arm_faults(plan);
        cluster.serve(
            &c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch),
            SimTime::ZERO,
        );
        let b_ack = cluster.serve(
            &c,
            &n,
            NodeId(0),
            Request::Batch(ShardId(0), &batch),
            crash_at,
        );
        assert!(b_ack > crash_at, "B is priced ahead of the crash");
        assert_eq!(
            cluster.unapplied_ops_at(a_applied),
            8,
            "only B is unapplied"
        );
        assert!(cluster
            .shard_available(&c, &n, NodeId(0), ShardId(0), crash_at)
            .is_err());
        let f = cluster.fault_stats();
        assert_eq!(f.promotions, 1);
        assert_eq!(f.replayed_ops, 8, "A was in flight to the standby");
        assert_eq!(f.lag_replayed_rows, 17, "A's coalesced write set replays");
        assert_eq!(f.lost_acked_ops, 0);
    }

    #[test]
    fn admission_paces_session_readmission_after_recovery() {
        let plan = FaultPlan::default().crash(
            ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(1),
        );
        let c = CofsConfig::default()
            .with_fault_plan(plan.clone())
            .with_admission();
        let n = net();
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        cluster.arm_faults(plan);
        // While the shard is down, the supervisor quotes the scheduled
        // resume as retry-after (admission control is on).
        let down = cluster
            .shard_available(&c, &n, NodeId(0), ShardId(0), SimTime::from_millis(1))
            .unwrap_err();
        let resume = down.retry_after.expect("supervisor quotes the restart");
        // The first `sessions_per_window` nodes are re-admitted...
        assert!(cluster
            .shard_available(&c, &n, NodeId(0), ShardId(0), resume)
            .is_ok());
        assert!(cluster
            .shard_available(&c, &n, NodeId(1), ShardId(0), resume)
            .is_ok());
        // ...the next is deferred to the following window start.
        let deferred = cluster
            .shard_available(&c, &n, NodeId(2), ShardId(0), resume)
            .unwrap_err();
        let after = deferred
            .retry_after
            .expect("admission quotes the next window");
        assert_eq!(after, resume + c.admission.window);
        // A probe-granted node re-probes without burning a second
        // token: node 0 stays admitted while node 3 is still deferred.
        assert!(cluster
            .shard_available(&c, &n, NodeId(0), ShardId(0), resume)
            .is_ok());
        assert!(cluster
            .shard_available(&c, &n, NodeId(3), ShardId(0), resume)
            .is_err());
        // Honoring the quoted retry-after lands node 2 in window 1.
        assert!(cluster
            .shard_available(&c, &n, NodeId(2), ShardId(0), after)
            .is_ok());
        let f = cluster.fault_stats();
        assert_eq!(f.admission_defers, 2, "nodes 2 and 3 each deferred once");
        assert_eq!(f.nacks, 1 + 2, "the down NACK plus both defers");
    }

    #[test]
    fn partition_refuses_without_fencing_or_epoch_bump() {
        // A partitioned shard is alive but unreachable: requests NACK
        // with no retry-after, yet nothing is fenced, no epoch bumps,
        // and no downtime accrues — the shard never died.
        let plan = FaultPlan::default().partition(
            ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(2),
        );
        let c = CofsConfig::default().with_fault_plan(plan.clone());
        let n = net();
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        cluster.arm_faults(plan);
        let ops = DbOps {
            reads: 1,
            writes: 0,
        };
        assert!(checked_rpc(&mut cluster, &c, &n, ops, SimTime::ZERO).is_ok());
        let e = checked_rpc(&mut cluster, &c, &n, ops, SimTime::from_millis(1)).unwrap_err();
        assert_eq!(
            e.retry_after, None,
            "no supervisor answers across a severed link"
        );
        assert_eq!(
            e.at,
            SimTime::from_millis(1) + SimDuration::from_micros(250),
            "the refusal costs one round trip"
        );
        assert_eq!(cluster.epoch(ShardId(0)), 1);
        // After the heal the same session keeps working — it was never
        // evicted.
        assert!(checked_rpc(&mut cluster, &c, &n, ops, SimTime::from_millis(3)).is_ok());
        let f = cluster.fault_stats();
        assert_eq!(f.partition_nacks, 1);
        assert_eq!(f.nacks, 1);
        assert_eq!(f.crashes, 0);
        assert_eq!(f.fenced_sessions, 0);
        assert_eq!(f.fenced_leases, 0);
        assert_eq!(f.downtime, SimDuration::ZERO);
    }

    #[test]
    fn crash_loop_flaps_clamp_into_nonoverlapping_windows() {
        // The scripted period (1ms) is tighter than the outage (2ms +
        // recovery), so each flap clamps to fire at the previous
        // resume: downtime accrues sequentially, never double-counting
        // overlapped windows.
        let restart = SimDuration::from_millis(2);
        let plan = FaultPlan::default().crash_loop(
            ShardId(0),
            SimTime::from_millis(1),
            SimDuration::from_millis(1),
            restart,
            3,
        );
        let c = CofsConfig::default().with_fault_plan(plan.clone());
        let n = net();
        let mut cluster = MdsCluster::new(Box::new(SingleShard));
        cluster.arm_faults(plan);
        // One probe far in the future drives every scripted flap.
        let _ = cluster.shard_available(&c, &n, NodeId(0), ShardId(0), SimTime::from_secs(1));
        let f = cluster.fault_stats();
        assert_eq!(f.crashes, 3);
        // Empty replay: each window is restart + the journal-tail scan,
        // chained end to end.
        let per = restart + c.mds_service + c.db.lookup;
        assert_eq!(f.downtime, per * 3);
        assert_eq!(cluster.epoch(ShardId(0)), 4, "every flap fences");
    }

    /// Golden pricing pin: one fixed mixed sequence against one
    /// two-shard cluster, covering every request kind and both lanes.
    /// The figures were recorded before single, batched and two-phase
    /// requests shared one pricing path, so any drift in the shared
    /// arithmetic fails here.
    #[test]
    fn golden_mixed_sequence_prices_exactly() {
        let n = net();
        let prio = CofsConfig {
            read_priority: true,
            ..cfg()
        };
        let memo = CofsConfig {
            batch: crate::batch::BatchConfig::enabled(16, SimDuration::from_millis(5), 4)
                .with_memoized_reads(),
            ..prio.clone()
        };
        let wb = CofsConfig {
            read_priority: true,
            ..wb_cfg()
        };
        let (s0, s1) = (ShardId(0), ShardId(1));
        let lump = vec![
            BatchedOp::opaque(DbOps {
                reads: 5,
                writes: 2,
            });
            16
        ];
        // Four creates into one directory, sharing its 2-row chain.
        let memo_batch = vec![
            BatchedOp {
                db: DbOps {
                    reads: 5,
                    writes: 2,
                },
                read_set: crate::mds::ReadSet::resolution_chain(&vpath("/d/f")),
                ..BatchedOp::default()
            };
            4
        ];
        let wb_batch: Vec<BatchedOp> = (0..4).map(|_| create_op(42)).collect();
        let read = DbOps {
            reads: 3,
            writes: 0,
        };
        let write = DbOps {
            reads: 3,
            writes: 2,
        };
        let one_write = DbOps {
            reads: 6,
            writes: 1,
        };
        let cross = DbOps {
            reads: 5,
            writes: 4,
        };
        let mut cluster = MdsCluster::new(Box::new(HashByParent::new(2)));
        let mut done = Vec::new();
        let zero = SimTime::ZERO;
        // Two lumps on shard 0, then node 1's read bypasses the queued one.
        done.push(cluster.serve(&prio, &n, NodeId(0), Request::Batch(s0, &lump), zero));
        done.push(cluster.serve(&prio, &n, NodeId(0), Request::Batch(s0, &lump), zero));
        done.push(cluster.serve(&prio, &n, NodeId(1), Request::Single(s0, read), zero));
        // A synchronous write, a memoized batch, a write-behind batch
        // and a two-phase op, each sent when the previous one is done.
        let t = done[2];
        done.push(cluster.serve(&prio, &n, NodeId(1), Request::Single(s1, write), t));
        let t = done[3];
        done.push(cluster.serve(&memo, &n, NodeId(0), Request::Batch(s1, &memo_batch), t));
        let t = done[4];
        done.push(cluster.serve(&wb, &n, NodeId(0), Request::Batch(s0, &wb_batch), t));
        let t = done[5];
        let req = Request::TwoPhase((s1, s0), cross);
        done.push(cluster.serve(&prio, &n, NodeId(0), req, t));
        // A two-phase op whose participant half carries no write (half
        // of one), queued behind a lump on the participant while a
        // second lump is in service: it must not take the read lane.
        let t = done[6];
        done.push(cluster.serve(&prio, &n, NodeId(0), Request::Batch(s1, &lump), t));
        done.push(cluster.serve(&prio, &n, NodeId(0), Request::Batch(s1, &lump), t));
        let req = Request::TwoPhase((s0, s1), one_write);
        done.push(cluster.serve(&prio, &n, NodeId(0), req, t));
        // A single write under write-behind (a listing's atime) still
        // commits synchronously: only batches journal.
        let t = done[9];
        let atime = DbOps {
            reads: 2,
            writes: 1,
        };
        done.push(cluster.serve(&wb, &n, NodeId(1), Request::Single(s0, atime), t));
        let nanos: Vec<u64> = done.iter().map(|d| d.as_nanos()).collect();
        assert_eq!(
            nanos,
            [
                3395000, 4540000, 3434000, 5763000, 8270000, 8623000, 9409000, 10804000, 11949000,
                12343000, 12649000
            ]
        );
        assert_eq!(
            format!("{:?}", cluster.usage()),
            concat!(
                "[ShardUsage { shard: 0, rpcs: 40, busy: SimDuration(2818000), ",
                "mean_wait: SimDuration(429000), two_phase: 2, recalls: 0, batches: 3, ",
                "reads_charged: 178, reads_memoized: 0, read_bypasses: 1, journal_appends: 1, ",
                "rows_coalesced: 3, apply_lag: SimDuration(145000), splits: 0, merges: 0, ",
                "migrations: 0 }, ",
                "ShardUsage { shard: 1, rpcs: 39, busy: SimDuration(2794000), ",
                "mean_wait: SimDuration(415625), two_phase: 2, recalls: 0, batches: 3, ",
                "reads_charged: 183, reads_memoized: 6, read_bypasses: 0, journal_appends: 0, ",
                "rows_coalesced: 0, apply_lag: SimDuration(0), splits: 0, merges: 0, ",
                "migrations: 0 }]"
            )
        );
    }
}
