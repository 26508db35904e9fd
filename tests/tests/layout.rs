//! Pins the underlying layout COFS writes: every file's mapping and the
//! whole underlying tree must equal what a reference renderer produces,
//! so a change to how placement names or tracks its directories cannot
//! move a single file.

use cofs::config::{CofsConfig, MdsNetwork};
use cofs::fs::CofsFs;
use cofs::mds::Cred;
use netsim::ids::{NodeId, Pid};
use simcore::rng::{stable_hash, stable_hash_combine, SimRng};
use simcore::time::SimDuration;
use std::collections::{BTreeSet, HashMap};
use vfs::fs::{FileSystem, OpCtx};
use vfs::memfs::MemFs;
use vfs::path::{vpath, VPath};
use vfs::types::{FileType, Gid, Mode, Uid};

/// The hashed placement policy written out with one `format!` per path
/// component and slot counts keyed by the rendered directory: the
/// layout `<root>/n<node>/h<hash:016x>/d<slot>` files must land in.
struct ReferencePlacement {
    root: VPath,
    dir_limit: u32,
    spread: u32,
    rng: SimRng,
    counts: HashMap<VPath, u32>,
    next_slot: HashMap<u64, u32>,
    lanes: HashMap<(u64, u32), u32>,
}

impl ReferencePlacement {
    fn new(root: VPath, dir_limit: u32, spread: u32, seed: u64) -> Self {
        ReferencePlacement {
            root,
            dir_limit,
            spread,
            rng: SimRng::seed_from(seed),
            counts: HashMap::new(),
            next_slot: HashMap::new(),
            lanes: HashMap::new(),
        }
    }

    fn place(&mut self, node: NodeId, pid: Pid, vparent: &VPath) -> VPath {
        let h = stable_hash(vparent.as_str().as_bytes());
        let h = stable_hash_combine(stable_hash_combine(h, node.index() as u64), pid.0 as u64);
        let hdir = self
            .root
            .join(&format!("n{}", node.index()))
            .join(&format!("h{h:016x}"));
        let lane = self.rng.below(self.spread as u64) as u32;
        let slot = *self.lanes.entry((h, lane)).or_insert_with(|| {
            let s = self.next_slot.entry(h).or_insert(0);
            let v = *s;
            *s += 1;
            v
        });
        let dir = hdir.join(&format!("d{slot}"));
        let count = self.counts.entry(dir.clone()).or_insert(0);
        *count += 1;
        if *count >= self.dir_limit {
            let s = self.next_slot.entry(h).or_insert(0);
            let fresh = *s;
            *s += 1;
            self.lanes.insert((h, lane), fresh);
        }
        dir
    }
}

/// Every path below the root of `fs`, directories and files alike.
fn tree(fs: &mut MemFs) -> BTreeSet<String> {
    let ctx = OpCtx::test(NodeId(0));
    let mut out = BTreeSet::new();
    let mut todo = vec![VPath::root()];
    while let Some(dir) = todo.pop() {
        for e in fs.readdir(&ctx, &dir).unwrap().value {
            let p = dir.join(&e.name);
            out.insert(p.as_str().to_string());
            if e.ftype == FileType::Directory {
                todo.push(p);
            }
        }
    }
    out
}

#[test]
fn storm_layout_matches_the_reference_renderer() {
    const SEED: u64 = 23;
    let cfg = CofsConfig {
        dir_limit: 4,
        ..CofsConfig::default()
    };
    let mut reference =
        ReferencePlacement::new(cfg.under_root.clone(), cfg.dir_limit, cfg.spread, SEED);
    let net = MdsNetwork::uniform(SimDuration::from_micros(250));
    let mut fs = CofsFs::new(MemFs::new(), cfg, net, SEED);
    let admin = OpCtx::test(NodeId(0));
    let parents = [VPath::root(), vpath("/p0"), vpath("/p1"), vpath("/p0/q")];
    for dir in &parents[1..] {
        fs.mkdir(&admin, dir, Mode::new(0o777)).unwrap();
    }

    let mut rng = SimRng::seed_from(SEED + 1);
    let mut files = Vec::new();
    let mut expected_tree = BTreeSet::new();
    for i in 0..600u64 {
        let mut ctx = OpCtx::test(NodeId(rng.below(6) as u32));
        ctx.pid = Pid(1 + rng.below(3) as u32);
        let parent = &parents[rng.below(parents.len() as u64) as usize];
        let path = parent.join(&format!("f{i}"));
        let fh = fs.create(&ctx, &path, Mode::file_default()).unwrap().value;
        fs.close(&ctx, fh).unwrap();
        // Underlying names count up from i1, one per create.
        let mapping = reference
            .place(ctx.node, ctx.pid, parent)
            .join(&format!("i{}", i + 1));
        let mut p = Some(mapping.clone());
        while let Some(d) = p.filter(|d| !d.is_root()) {
            expected_tree.insert(d.as_str().to_string());
            p = d.parent();
        }
        files.push((path, mapping));
    }

    let cred = Cred {
        uid: Uid(1000),
        gid: Gid(1000),
    };
    for (path, mapping) in &files {
        let (rec, _) = fs.mds().getattr(cred, path).unwrap();
        assert_eq!(rec.mapping.as_ref(), Some(mapping), "mapping of {path}");
    }
    // Retired slots: some hash directory holds more than one slot.
    let slots = expected_tree.iter().filter(|p| p.contains("/d1")).count();
    assert!(slots > 0, "dir_limit 4 must retire slots");
    assert_eq!(tree(fs.under_mut()), expected_tree);
}

#[test]
fn failed_creates_take_no_placement_slot() {
    let cfg = CofsConfig {
        dir_limit: 4,
        spread: 1,
        ..CofsConfig::default()
    };
    let net = MdsNetwork::uniform(SimDuration::from_micros(250));
    let mut fs = CofsFs::new(MemFs::new(), cfg, net, 5);
    let ctx = OpCtx::test(NodeId(0));
    let fh = fs
        .create(&ctx, &vpath("/f0"), Mode::file_default())
        .unwrap()
        .value;
    fs.close(&ctx, fh).unwrap();
    for _ in 0..3 {
        let err = fs
            .create(&ctx, &vpath("/f0"), Mode::file_default())
            .unwrap_err();
        assert!(err.is(vfs::error::Errno::EEXIST));
    }
    let cred = Cred {
        uid: Uid(1000),
        gid: Gid(1000),
    };
    let slot_of = |fs: &CofsFs<MemFs>, path: &VPath| {
        let (rec, _) = fs.mds().getattr(cred, path).unwrap();
        rec.mapping.clone().unwrap().parent().unwrap()
    };
    let first = slot_of(&fs, &vpath("/f0"));
    assert!(first.as_str().ends_with("/d0"), "{first}");
    for i in 1..4 {
        let path = vpath(&format!("/f{i}"));
        let fh = fs.create(&ctx, &path, Mode::file_default()).unwrap().value;
        fs.close(&ctx, fh).unwrap();
        // Only successful creates count against the slot, so d0 fills
        // to its limit of four before a new slot opens.
        assert_eq!(slot_of(&fs, &path), first, "{path}");
        let (rec, _) = fs.mds().getattr(cred, &path).unwrap();
        let name = rec.mapping.clone().unwrap();
        assert_eq!(name.file_name(), Some(format!("i{}", i + 1).as_str()));
    }
}
