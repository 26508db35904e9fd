//! The four workloads: their fixed stacks, their seeded client scripts,
//! and the preconditions that keep each one from reporting a hollow
//! number.
//!
//! Every workload is a closed loop: a simulated client issues its next
//! operation only when the previous one completed, as MPI ranks do in
//! metarates. The stack configuration and its seed are fixed; the
//! workload seed only shapes the generated scripts.

use crate::stack::UnderFs;
use cofs::config::{CofsConfig, MdsNetwork, ShardPolicyKind};
use cofs::fault::FaultPlan;
use cofs::fs::CofsFs;
use netsim::cluster::ClusterBuilder;
use netsim::ids::{NodeId, Pid};
use netsim::topology::Topology;
use pfs::config::PfsConfig;
use pfs::fs::PfsFs;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use vfs::driver::{Action, ClientScript};
use vfs::memfs::MemFs;
use vfs::path::{vpath, VPath};
use vfs::types::Mode;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A shared-directory create/stat storm from 2048 clients on a
    /// synchronous 8-shard stack over `MemFs`: dispatch-bound on the
    /// host, queueing-bound on the shards.
    StormWide,
    /// Bursty create trains, stats and listings from 32 clients with
    /// every fault-free mechanism on.
    MixedAllOn,
    /// A shard crash-loop through the whole run on the standby +
    /// admission + write-behind stack.
    CascadeFaults,
    /// The paper's Fig 6 metarates shape: COFS over GPFS on 64 nodes of
    /// a hierarchical network, a create phase then a stat phase in one
    /// shared directory.
    MetaratesGpfs,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::StormWide,
        Workload::MixedAllOn,
        Workload::CascadeFaults,
        Workload::MetaratesGpfs,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StormWide => "storm_wide",
            Workload::MixedAllOn => "mixed_all_on",
            Workload::CascadeFaults => "cascade_faults",
            Workload::MetaratesGpfs => "metarates_gpfs",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether operations may fail with `EIO` (and its deterministic
    /// `EBADF`/`ENOENT` follow-ons) without failing the audit.
    pub fn tolerates_eio(self) -> bool {
        self == Workload::CascadeFaults
    }

    /// The seeded client scripts. Beyond each workload's own draws, the
    /// seed orders every phase's clients, which decides who goes first
    /// among clients whose clocks tie.
    pub fn scripts(self, seed: u64) -> Scripts {
        let mut rng = SimRng::seed_from(seed);
        let mut scripts = match self {
            Workload::StormWide => storm(&mut rng, &STORM_WIDE),
            Workload::MixedAllOn => mixed(&mut rng),
            Workload::CascadeFaults => storm(&mut rng, &CASCADE),
            Workload::MetaratesGpfs => metarates(&mut rng),
        };
        for phase in &mut scripts.phases {
            rng.shuffle(&mut phase.clients);
        }
        scripts
    }

    /// Checks that the run reached the code this workload exists to
    /// measure, from the per-layer counts of the measured phases.
    ///
    /// # Errors
    ///
    /// Names every precondition that did not fire.
    pub fn preconditions(self, counts: &BTreeMap<&'static str, f64>) -> Result<(), String> {
        // Each count must exceed its floor.
        let above: &[(&str, f64)] = match self {
            Workload::StormWide => &[("mds_cluster.mean_wait_ms", 0.0)],
            Workload::MixedAllOn => &[
                ("client_cache.hits", 0.0),
                ("client_cache.invalidations", 0.0),
                ("batch.mean_ops", 1.0),
                ("metadb.journal_appends", 0.0),
                ("elastic.splits", 0.0),
                ("mds_cluster.read_bypasses", 0.0),
            ],
            Workload::CascadeFaults => &[
                ("fault.crashes", 0.0),
                ("fault.promotions", 0.0),
                ("fault.retries", 0.0),
                ("fault.admission_defers", 0.0),
                ("fault.replayed_ops", 0.0),
            ],
            Workload::MetaratesGpfs => &[("pfs.token_acquires", 0.0)],
        };
        // The mechanisms `storm_wide` must leave untouched, so that a
        // change to them predicts no movement there.
        let zero: &[&str] = match self {
            Workload::StormWide => &[
                "client_cache.hits",
                "client_cache.misses",
                "batch.ops_enqueued",
                "fault.crashes",
                "pfs.token_acquires",
            ],
            _ => &[],
        };
        let get = |k: &str| counts.get(k).copied().unwrap_or(0.0);
        let mut missing: Vec<String> = above
            .iter()
            .filter(|&&(k, floor)| get(k) <= floor)
            .map(|(k, floor)| format!("{k} > {floor}"))
            .collect();
        missing.extend(
            zero.iter()
                .filter(|k| get(k) != 0.0)
                .map(|k| format!("{k} == 0")),
        );
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{}: preconditions not met: {}",
                self.name(),
                missing.join(", ")
            ))
        }
    }
}

/// A measured phase: every client's script, run together from time zero.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The phase's name (its root span's op in a trace).
    pub name: &'static str,
    /// One script per client.
    pub clients: Vec<ClientScript>,
}

/// A workload's scripts for one seed.
#[derive(Debug, Clone)]
pub struct Scripts {
    /// The unmeasured set-up, run by one client before the first phase.
    pub setup: ClientScript,
    /// The measured phases, in order.
    pub phases: Vec<Phase>,
}

/// The filesystems a workload can put under COFS, and how each
/// workload's fixed stack is built on them.
pub trait Testbed: UnderFs + Sized {
    /// The underlying filesystem, COFS config and network of `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` does not run on this testbed.
    fn build(w: Workload) -> (Self, CofsConfig, MdsNetwork);
}

impl Testbed for MemFs {
    fn build(w: Workload) -> (MemFs, CofsConfig, MdsNetwork) {
        let cfg = match w {
            Workload::StormWide => {
                CofsConfig::default().with_shards(8, ShardPolicyKind::HashByParent)
            }
            Workload::MixedAllOn => CofsConfig::default()
                .with_elastic(8)
                .with_client_cache(4096, SimDuration::from_secs(1))
                .with_batching(16, SimDuration::from_millis(5), 4)
                .with_read_memoization()
                .with_read_priority()
                .with_write_behind(),
            Workload::CascadeFaults => {
                let cfg = cascade_config();
                let plan = cascade_plan(&cfg);
                cfg.with_fault_plan(plan)
            }
            Workload::MetaratesGpfs => panic!("metarates_gpfs runs over GPFS"),
        };
        (MemFs::new(), cfg, mds_limit_net())
    }
}

impl Testbed for PfsFs {
    fn build(w: Workload) -> (PfsFs, CofsConfig, MdsNetwork) {
        assert_eq!(
            w,
            Workload::MetaratesGpfs,
            "only metarates_gpfs runs over GPFS"
        );
        // The paper's Fig 6 testbed: 64 blades in blade centers of 16
        // behind shared uplinks, two file servers, one extra blade
        // hosting the metadata service.
        let cluster = ClusterBuilder::new()
            .clients(METARATES.clients)
            .servers(2)
            .with_metadata_host()
            .topology(Topology::hierarchical(16))
            .build();
        let host = cluster.metadata_host().expect("requested a metadata host");
        let net = MdsNetwork::from_cluster(&cluster, host);
        (
            PfsFs::new(cluster, PfsConfig::default()),
            CofsConfig::default(),
            net,
        )
    }
}

/// The metadata-service-limit network: a uniform 250 µs RTT.
fn mds_limit_net() -> MdsNetwork {
    MdsNetwork::uniform(SimDuration::from_micros(250))
}

/// The correlated-failure survival stack: 4 hash-by-parent shards,
/// 16-op batches, write-behind journaling, hot standbys and
/// post-recovery admission control.
fn cascade_config() -> CofsConfig {
    CofsConfig::default()
        .with_shards(4, ShardPolicyKind::HashByParent)
        .with_batching(16, SimDuration::from_millis(5), 4)
        .with_write_behind()
        .with_standby()
        .with_admission()
}

/// Crash flaps of the shard owning `d0`, spread over the whole run.
const CASCADE_FLAPS: u32 = 40;

/// A crash-loop of the shard owning `d0` from 2 ms on, with the shard
/// owning `d1` crashing beside it at 2 ms when it is another shard.
fn cascade_plan(cfg: &CofsConfig) -> FaultPlan {
    let probe = CofsFs::new(MemFs::new(), cfg.clone(), mds_limit_net(), 0);
    let d0 = probe
        .mds_cluster()
        .route(&CASCADE.root().join("d0").join("f"));
    let d1 = probe
        .mds_cluster()
        .route(&CASCADE.root().join("d1").join("f"));
    let partner = if d1 == d0 { vec![] } else { vec![d1] };
    let down = SimDuration::from_millis(10);
    FaultPlan::default()
        .crash_loop(
            d0,
            SimTime::from_millis(2),
            SimDuration::from_millis(120),
            down,
            CASCADE_FLAPS,
        )
        .rack(&partner, SimTime::from_millis(2), down)
}

/// A shared-directory storm shape.
struct Storm {
    clients: usize,
    dirs: usize,
    files: usize,
    /// Inclusive range the seed draws each new file's stat count from.
    stats_per_create: (u64, u64),
    root: &'static str,
}

const STORM_WIDE: Storm = Storm {
    clients: 2048,
    dirs: 32,
    files: 4,
    stats_per_create: (3, 5),
    root: "/storm",
};

const CASCADE: Storm = Storm {
    clients: 64,
    dirs: 8,
    files: 1024,
    stats_per_create: (1, 3),
    root: "/cascade",
};

impl Storm {
    fn root(&self) -> VPath {
        vpath(self.root)
    }
}

fn mkdirs(dirs: &[VPath]) -> ClientScript {
    let mut s = ClientScript::new(NodeId(0), Pid(1));
    for d in dirs {
        s.push(Action::Mkdir(d.clone(), Mode::dir_default()));
    }
    s
}

fn create(s: &mut ClientScript, path: VPath) {
    s.push_measured(
        "create",
        Action::Create {
            path,
            mode: Mode::file_default(),
            slot: 0,
        },
    );
    s.push(Action::Close { slot: 0 });
}

/// Each client creates its files round-robin over the hot directories,
/// the clients' starting directories spread evenly, statting each new
/// file a seeded number of times right after creating it.
fn storm(rng: &mut SimRng, shape: &Storm) -> Scripts {
    let root = shape.root();
    let dirs: Vec<VPath> = (0..shape.dirs)
        .map(|d| root.join(&format!("d{d}")))
        .collect();
    let mut setup_dirs = vec![root];
    setup_dirs.extend(dirs.iter().cloned());
    let mut clients = Vec::with_capacity(shape.clients);
    for n in 0..shape.clients {
        let mut s = ClientScript::new(NodeId(n as u32), Pid(1));
        s.push(Action::Barrier);
        for i in 0..shape.files {
            let path = dirs[(n + i) % shape.dirs].join(&format!("f.{n}.{i}"));
            create(&mut s, path.clone());
            for _ in 0..rng.range(shape.stats_per_create.0, shape.stats_per_create.1) {
                s.push_measured("stat", Action::Stat(path.clone()));
            }
        }
        clients.push(s);
    }
    Scripts {
        setup: mkdirs(&setup_dirs),
        phases: vec![Phase {
            name: "storm",
            clients,
        }],
    }
}

const MIXED_CLIENTS: usize = 32;
const MIXED_DIRS: usize = 8;
const MIXED_FILES: usize = 512;
const MIXED_TRAIN: usize = 16;
/// Independent rounds of the mixed storm, each in fresh directories:
/// elastic split and merge decisions turn small timing differences into
/// large ones, so one round's makespan swings with the seed, and the
/// sum over several rounds is steadier.
const MIXED_ROUNDS: usize = 4;

/// Each client fires create trains into one directory at a time, from a
/// seeded starting directory, then stats everything it just created
/// twice and lists the directory: listings take dentry leases the next
/// train by any other client must recall, and trains fill real batches.
/// The last train is not polled, so its writes are still being applied
/// when the round ends.
fn mixed(rng: &mut SimRng) -> Scripts {
    let root = vpath("/mixed");
    let mut setup_dirs = vec![root.clone()];
    let mut phases = Vec::with_capacity(MIXED_ROUNDS);
    for r in 0..MIXED_ROUNDS {
        let round = root.join(&format!("r{r}"));
        let dirs: Vec<VPath> = (0..MIXED_DIRS)
            .map(|d| round.join(&format!("d{d}")))
            .collect();
        setup_dirs.push(round);
        setup_dirs.extend(dirs.iter().cloned());
        let mut clients = Vec::with_capacity(MIXED_CLIENTS);
        for n in 0..MIXED_CLIENTS {
            let mut s = ClientScript::new(NodeId(n as u32), Pid(1));
            s.push(Action::Barrier);
            let mut d = rng.below(MIXED_DIRS as u64) as usize;
            for first in (0..MIXED_FILES).step_by(MIXED_TRAIN) {
                let dir = &dirs[d];
                let paths: Vec<VPath> = (first..MIXED_FILES.min(first + MIXED_TRAIN))
                    .map(|k| dir.join(&format!("f.{n}.{k}")))
                    .collect();
                for p in &paths {
                    create(&mut s, p.clone());
                }
                if first + MIXED_TRAIN >= MIXED_FILES {
                    break;
                }
                for p in &paths {
                    s.push_measured("stat", Action::Stat(p.clone()));
                    s.push_measured("stat", Action::Stat(p.clone()));
                }
                s.push_measured("readdir", Action::Readdir(dir.clone()));
                d = (d + 1) % MIXED_DIRS;
            }
            clients.push(s);
        }
        phases.push(Phase {
            name: "mixed",
            clients,
        });
    }
    Scripts {
        setup: mkdirs(&setup_dirs),
        phases,
    }
}

/// The Fig 6 metarates shape.
struct Metarates {
    clients: usize,
    /// Files node 0 pre-creates for the stat phase.
    population: usize,
    /// Files each client creates, and stats, in its phase.
    per_client: usize,
}

const METARATES: Metarates = Metarates {
    clients: 64,
    population: 64 * 256,
    per_client: 256,
};

/// Node 0 sequentially pre-creates the stat phase's files during
/// set-up (metarates' unmeasured pre-create). The create phase then has
/// every client create its own files in the shared directory in
/// parallel, and the stat phase has every client stat seeded picks of
/// the pre-created files.
fn metarates(rng: &mut SimRng) -> Scripts {
    let dir = vpath("/shared");
    let m = &METARATES;
    let mut setup = mkdirs(std::slice::from_ref(&dir));
    let pre: Vec<VPath> = (0..m.population)
        .map(|k| dir.join(&format!("p{k}")))
        .collect();
    for p in &pre {
        setup.push(Action::Create {
            path: p.clone(),
            mode: Mode::file_default(),
            slot: 0,
        });
        setup.push(Action::Close { slot: 0 });
    }
    let mut creates = Vec::with_capacity(m.clients);
    let mut stats = Vec::with_capacity(m.clients);
    for ci in 0..m.clients {
        let node = NodeId(ci as u32);
        let mut c = ClientScript::new(node, Pid(1));
        c.push(Action::Barrier);
        for i in 0..m.per_client {
            create(&mut c, dir.join(&format!("c{ci}.{i}")));
        }
        creates.push(c);
        let mut s = ClientScript::new(node, Pid(1));
        s.push(Action::Barrier);
        for _ in 0..m.per_client {
            let k = rng.below(m.population as u64) as usize;
            s.push_measured("stat", Action::Stat(pre[k].clone()));
        }
        stats.push(s);
    }
    Scripts {
        setup,
        phases: vec![
            Phase {
                name: "create",
                clients: creates,
            },
            Phase {
                name: "stat",
                clients: stats,
            },
        ],
    }
}
