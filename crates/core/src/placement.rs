//! The COFS placement driver.
//!
//! Maps regular files in the virtual view onto the underlying
//! filesystem layout. The paper's policy (§III-B):
//!
//! > "The currently implemented policy computes the underlying path
//! > name at creation time from a hash function applied to a
//! > combination of the following parameters: the node issuing the
//! > creation request, the parent directory in the virtual view of the
//! > file hierarchy, and the process creating the file. […] a
//! > randomization factor is used, resulting in files being further
//! > distributed in a subdirectory level below the path determined by
//! > the hash function. […] we applied a limit of 512 entries to the
//! > underlying directory size."

use netsim::ids::{NodeId, Pid};
use simcore::rng::{stable_hash, stable_hash_combine, SimRng};
use std::collections::HashMap;
use vfs::path::VPath;

/// A slot directory of [`HashedPlacement`]'s layout, by number:
/// `<root>/n<node>/h<hash:016x>/d<slot>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotKey {
    /// Index of the creating client node.
    pub node: u32,
    /// Hash of (node, virtual parent, pid).
    pub hash: u64,
    /// Slot number within the hash directory.
    pub slot: u32,
}

/// A directory of the underlying layout, as a placement policy names
/// it. The hashed layout's directories are named by number and
/// rendered to a path only when one is needed, so the per-create
/// bookkeeping (slot counts, which directories exist) holds a few
/// integers per directory rather than its path text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UnderDir {
    /// A directory named by its path: the layout root and its
    /// ancestors, or any directory of a policy without a numbered
    /// layout.
    Path(VPath),
    /// `<root>/n<node>`: the directory only `node` creates under.
    Node(u32),
    /// `<root>/n<node>/h<hash:016x>`.
    Hash(u32, u64),
    /// `<root>/n<node>/h<hash:016x>/d<slot>`.
    Slot(SlotKey),
}

/// Decimal digits of `n`.
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

impl UnderDir {
    /// True for the filesystem root, which always exists.
    pub fn is_root(&self) -> bool {
        matches!(self, UnderDir::Path(p) if p.is_root())
    }

    /// The containing directory, for a layout rooted at `root`; `None`
    /// for the filesystem root.
    pub fn parent(&self, root: &VPath) -> Option<UnderDir> {
        match self {
            UnderDir::Path(p) => p.parent().map(UnderDir::Path),
            UnderDir::Node(_) => Some(UnderDir::Path(root.clone())),
            UnderDir::Hash(node, _) => Some(UnderDir::Node(*node)),
            UnderDir::Slot(k) => Some(UnderDir::Hash(k.node, k.hash)),
        }
    }

    /// The directory's path in a layout rooted at `root`.
    pub fn path(&self, root: &VPath) -> VPath {
        self.render(root, 0)
    }

    /// The path of the underlying file `i<seq>` in this directory,
    /// written into one exactly-sized buffer.
    pub fn file_path(&self, root: &VPath, seq: u64) -> VPath {
        let mut p = self.render(root, 2 + digits(seq));
        p.push(format_args!("i{seq}"));
        p
    }

    /// Renders the directory's path with room for `extra` more bytes.
    fn render(&self, root: &VPath, extra: usize) -> VPath {
        let (node, hash, slot) = match *self {
            UnderDir::Path(ref p) => return p.with_room(extra),
            UnderDir::Node(n) => (n, None, None),
            UnderDir::Hash(n, h) => (n, Some(h), None),
            UnderDir::Slot(k) => (k.node, Some(k.hash), Some(k.slot)),
        };
        let mut p = root.with_room(
            2 + digits(node.into())
                + hash.map_or(0, |_| 18)
                + slot.map_or(0, |s| 2 + digits(s.into()))
                + extra,
        );
        p.push(format_args!("n{node}"));
        if let Some(h) = hash {
            p.push(format_args!("h{h:016x}"));
        }
        if let Some(s) = slot {
            p.push(format_args!("d{s}"));
        }
        p
    }
}

/// Chooses the underlying directory for each newly created file.
///
/// Implementations are deterministic state machines (any randomness
/// comes from an owned, seeded RNG) so experiment runs are exactly
/// reproducible.
pub trait PlacementPolicy: std::fmt::Debug {
    /// Returns the underlying directory for a file named `name`
    /// created by (`node`, `pid`) under the virtual parent directory
    /// whose normalized path is `vparent`. The caller appends the
    /// (unique) underlying file name itself.
    fn place(&mut self, node: NodeId, pid: Pid, vparent: &str, name: &str) -> UnderDir;

    /// The root of the layout: every directory [`Self::place`] returns
    /// renders to a path under it ([`UnderDir::path`]).
    fn root(&self) -> &VPath;

    /// A short label for reports and ablation tables.
    fn label(&self) -> &'static str;
}

/// The paper's hashed placement policy.
///
/// Layout: `<root>/n<node>/h<hash(node, vparent, pid)>/d<slot>` where
/// `slot` is a randomized subdirectory that is retired once it
/// accumulates `dir_limit` entries. The per-node level keeps even the
/// *creation of hash directories themselves* conflict-free: every
/// directory a node ever makes lives under a parent only it touches
/// (without it, concurrent first-creates from many processes would
/// ping-pong the root directory's token — the very pathology COFS
/// exists to avoid).
///
/// # Examples
///
/// ```
/// use cofs::placement::{HashedPlacement, PlacementPolicy};
/// use netsim::ids::{NodeId, Pid};
/// use vfs::path::vpath;
///
/// let mut p = HashedPlacement::new(vpath("/.cofs"), 512, 8, 42);
/// let a = p.place(NodeId(0), Pid(1), "/shared", "x");
/// let b = p.place(NodeId(1), Pid(1), "/shared", "y");
/// // Different nodes map to different underlying directories.
/// assert_ne!(a.parent(p.root()), b.parent(p.root()));
/// assert!(b.path(p.root()).starts_with(&vpath("/.cofs/n1")));
/// ```
#[derive(Debug)]
pub struct HashedPlacement {
    root: VPath,
    dir_limit: u32,
    spread: u32,
    rng: SimRng,
    /// Entries currently placed in each underlying directory.
    counts: HashMap<SlotKey, u32>,
    /// Next fresh slot number per hash directory.
    next_slot: HashMap<u64, u32>,
    /// Active slot per (hash dir, spread lane).
    lanes: HashMap<(u64, u32), u32>,
}

impl HashedPlacement {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `dir_limit` or `spread` is zero.
    pub fn new(root: VPath, dir_limit: u32, spread: u32, seed: u64) -> Self {
        assert!(dir_limit > 0, "directory limit must be positive");
        assert!(spread > 0, "spread must be positive");
        HashedPlacement {
            root,
            dir_limit,
            spread,
            rng: SimRng::seed_from(seed),
            counts: HashMap::new(),
            next_slot: HashMap::new(),
            lanes: HashMap::new(),
        }
    }

    fn hash_of(node: NodeId, pid: Pid, vparent: &str) -> u64 {
        let h = stable_hash(vparent.as_bytes());
        stable_hash_combine(stable_hash_combine(h, node.index() as u64), pid.0 as u64)
    }

    /// Entries placed so far in slot directory `dir` (for tests and
    /// invariants).
    pub fn entries_in(&self, dir: &SlotKey) -> u32 {
        self.counts.get(dir).copied().unwrap_or(0)
    }

    /// The configured per-directory limit.
    pub fn dir_limit(&self) -> u32 {
        self.dir_limit
    }
}

impl PlacementPolicy for HashedPlacement {
    fn place(&mut self, node: NodeId, pid: Pid, vparent: &str, _name: &str) -> UnderDir {
        let h = Self::hash_of(node, pid, vparent);
        // Randomization level: pick a lane, use its active slot; retire
        // the slot when it reaches the limit.
        let lane = self.rng.below(self.spread as u64) as u32;
        let slot = *self.lanes.entry((h, lane)).or_insert_with(|| {
            let s = self.next_slot.entry(h).or_insert(0);
            let v = *s;
            *s += 1;
            v
        });
        let key = SlotKey {
            node: node.0,
            hash: h,
            slot,
        };
        let count = self.counts.entry(key).or_insert(0);
        *count += 1;
        if *count >= self.dir_limit {
            // Retire this slot: the lane gets a fresh directory next time.
            let s = self.next_slot.entry(h).or_insert(0);
            let fresh = *s;
            *s += 1;
            self.lanes.insert((h, lane), fresh);
        }
        UnderDir::Slot(key)
    }

    fn root(&self) -> &VPath {
        &self.root
    }

    fn label(&self) -> &'static str {
        "hashed(node,parent,pid)+rand"
    }
}

/// Ablation policy: map every file into one underlying directory (no
/// decoupling — the layout the applications wanted in the first
/// place). Used to isolate how much of COFS's win comes from placement
/// versus the metadata service.
#[derive(Debug)]
pub struct PassthroughPlacement {
    root: VPath,
}

impl PassthroughPlacement {
    /// Creates the policy rooted at `root`.
    pub fn new(root: VPath) -> Self {
        PassthroughPlacement { root }
    }
}

impl PlacementPolicy for PassthroughPlacement {
    fn place(&mut self, _node: NodeId, _pid: Pid, vparent: &str, _name: &str) -> UnderDir {
        // Mirror the virtual parent under the root: a single shared
        // underlying directory per virtual directory.
        let mut dir = self.root.clone();
        for c in vparent.split('/').filter(|c| !c.is_empty()) {
            dir = dir.join(c);
        }
        UnderDir::Path(dir)
    }

    fn root(&self) -> &VPath {
        &self.root
    }

    fn label(&self) -> &'static str {
        "passthrough"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::path::vpath;

    fn policy() -> HashedPlacement {
        HashedPlacement::new(vpath("/.cofs"), 512, 8, 7)
    }

    fn slot(d: &UnderDir) -> SlotKey {
        match d {
            UnderDir::Slot(k) => *k,
            other => panic!("hashed placement returned {other:?}"),
        }
    }

    #[test]
    fn same_inputs_same_hash_dir() {
        let mut p = policy();
        let a = p.place(NodeId(0), Pid(1), "/v", "a");
        let b = p.place(NodeId(0), Pid(1), "/v", "b");
        // Same hash dir (parent of the slot dir) even if lanes differ.
        assert_eq!(a.parent(p.root()), b.parent(p.root()));
        assert!(a.path(p.root()).starts_with(&vpath("/.cofs")));
    }

    #[test]
    fn node_parent_pid_all_matter() {
        let mut p = policy();
        let base = p.place(NodeId(0), Pid(1), "/v", "f");
        let other_node = p.place(NodeId(1), Pid(1), "/v", "f");
        let other_pid = p.place(NodeId(0), Pid(2), "/v", "f");
        let other_parent = p.place(NodeId(0), Pid(1), "/w", "f");
        let hash_dir = |d: &UnderDir| d.parent(p.root()).unwrap().path(p.root());
        assert!(base.path(p.root()).starts_with(&vpath("/.cofs/n0")));
        assert!(other_node.path(p.root()).starts_with(&vpath("/.cofs/n1")));
        assert_ne!(hash_dir(&base), hash_dir(&other_node));
        assert_ne!(hash_dir(&base), hash_dir(&other_pid));
        assert_ne!(hash_dir(&base), hash_dir(&other_parent));
    }

    #[test]
    fn dir_limit_is_never_exceeded() {
        let mut p = HashedPlacement::new(vpath("/.cofs"), 64, 4, 3);
        let mut counts: HashMap<SlotKey, u32> = HashMap::new();
        for i in 0..2000 {
            let d = p.place(NodeId(0), Pid(1), "/v", &format!("f{i}"));
            *counts.entry(slot(&d)).or_insert(0) += 1;
        }
        for (d, n) in &counts {
            assert!(*n <= 64, "{d:?} holds {n} > limit");
            assert_eq!(p.entries_in(d), *n);
        }
        // The spread keeps several directories active.
        assert!(counts.len() >= 2000 / 64);
    }

    #[test]
    fn spread_uses_multiple_lanes() {
        let mut p = policy();
        let mut slots = std::collections::HashSet::new();
        for i in 0..64 {
            let d = p.place(NodeId(0), Pid(1), "/v", &format!("f{i}"));
            slots.insert(slot(&d).slot);
        }
        assert!(slots.len() > 1, "randomization should spread files");
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = HashedPlacement::new(vpath("/.cofs"), 512, 8, 99);
        let mut b = HashedPlacement::new(vpath("/.cofs"), 512, 8, 99);
        for i in 0..100 {
            let name = format!("f{i}");
            assert_eq!(
                a.place(NodeId(2), Pid(3), "/v", &name),
                b.place(NodeId(2), Pid(3), "/v", &name)
            );
        }
    }

    #[test]
    fn numbered_directories_render_the_layout() {
        let root = vpath("/.cofs");
        let k = SlotKey {
            node: 12,
            hash: 0xab,
            slot: 3,
        };
        let dir = UnderDir::Slot(k);
        assert_eq!(dir.path(&root), vpath("/.cofs/n12/h00000000000000ab/d3"));
        assert_eq!(
            dir.file_path(&root, 1007),
            vpath("/.cofs/n12/h00000000000000ab/d3/i1007")
        );
        let mut chain = vec![];
        let mut cur = Some(dir);
        while let Some(d) = cur {
            chain.push(d.path(&root).as_str().to_string());
            cur = d.parent(&root);
        }
        assert_eq!(
            chain,
            [
                "/.cofs/n12/h00000000000000ab/d3",
                "/.cofs/n12/h00000000000000ab",
                "/.cofs/n12",
                "/.cofs",
                "/"
            ]
        );
        assert!(UnderDir::Path(VPath::root()).is_root());
        assert!(!UnderDir::Node(0).is_root());
        // Under the filesystem root the layout adds no double slash.
        assert_eq!(
            UnderDir::Node(0).file_path(&VPath::root(), 9),
            vpath("/n0/i9")
        );
    }

    #[test]
    fn passthrough_mirrors_parent() {
        let mut p = PassthroughPlacement::new(vpath("/.under"));
        let d = p.place(NodeId(5), Pid(9), "/a/b", "f");
        assert_eq!(d, UnderDir::Path(vpath("/.under/a/b")));
        assert_eq!(d.file_path(p.root(), 4), vpath("/.under/a/b/i4"));
        assert_eq!(p.label(), "passthrough");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_panics() {
        HashedPlacement::new(vpath("/x"), 0, 8, 1);
    }
}
