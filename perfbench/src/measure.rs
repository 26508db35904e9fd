//! One benchmark iteration: build the stack, set up, run the measured
//! phases, read every layer's counters, and audit the outputs.

use crate::clock::{self, HostClock};
use crate::probe::{Layer, Span, Trace};
use crate::ratio;
use crate::stack::{self, Stack, UnderFs};
use crate::workload::{Phase, Testbed, Workload};
use cofs::config::{CofsConfig, MdsNetwork};
use cofs::fs::CofsFs;
use netsim::ids::NodeId;
use simcore::stats::Summary;
use simcore::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use vfs::driver::{run, Action, RunReport};
use vfs::error::Errno;
use vfs::fs::OpCtx;
use vfs::path::VPath;
use workloads::target::BenchTarget;

/// Fewest samples a measured label may have: p99 then has at least ten
/// samples beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// Runs of the calibration kernel before each iteration.
pub const CALIBRATIONS: usize = 10;

/// The labels whose latency the benchmark reports.
pub const LABELS: [&str; 2] = ["create", "stat"];

/// The virtual-time outcome of an iteration. A pure function of the
/// workload and its seed: it must repeat exactly, traced or not.
#[derive(Debug, Clone)]
pub struct Virtual {
    /// Sum of the phases' makespans, each including its batch drain.
    pub makespan: SimTime,
    /// Sum of the phases' apply horizons: when every acked write of a
    /// phase is applied.
    pub durable: SimTime,
    /// Latency samples per label, over all phases.
    pub labels: BTreeMap<&'static str, Summary>,
}

impl Virtual {
    /// The `q`-quantile of `label` in milliseconds.
    pub fn quantile_ms(&self, label: &str, q: f64) -> f64 {
        self.labels
            .get(label)
            .map_or(0.0, |s| s.quantile(q).as_millis_f64())
    }

    /// The mean latency of `label` in milliseconds.
    pub fn mean_ms(&self, label: &str) -> f64 {
        self.labels.get(label).map_or(0.0, Summary::mean_millis)
    }

    /// Samples recorded under `label`.
    pub fn samples(&self, label: &str) -> usize {
        self.labels.get(label).map_or(0, Summary::count)
    }

    /// Whether two outcomes are bit-identical: same makespan, same
    /// durability horizon, and the same latency samples in the same
    /// order under every label.
    pub fn same_as(&self, other: &Virtual) -> bool {
        self.makespan == other.makespan
            && self.durable == other.durable
            && self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(&other.labels)
                .all(|((a, x), (b, y))| a == b && x.samples() == y.samples())
    }
}

/// Everything one iteration measured.
#[derive(Debug)]
pub struct Iteration {
    /// Host ns to build the stack, generate the scripts and run the
    /// unmeasured set-up.
    pub setup_ns: u64,
    /// The fastest of [`CALIBRATIONS`] runs of the calibration kernel
    /// just before the iteration ([`clock::calibration_ns`]).
    pub calibration_ns: u64,
    /// Host ns inside the measured phases (driver runs plus drains).
    pub phase_ns: u64,
    /// Host ns of each slice of the measured phases on a metered stack
    /// (empty otherwise). Slices end every [`stack::TICK_CALLS`]
    /// driver→`CofsFs` calls and at each phase's end, so slice `k` is
    /// the same work in every iteration of one seed.
    pub slices_ns: Vec<u64>,
    /// Driver steps attempted in the measured phases (barriers excluded).
    pub steps: u64,
    /// Driver steps that failed.
    pub failed: u64,
    /// The virtual-time outcome.
    pub virt: Virtual,
    /// Per-layer counts read from the layers' public stats getters.
    pub counts: BTreeMap<&'static str, f64>,
    /// One linked trace per measured phase (empty unless traced).
    pub traces: Vec<Trace>,
}

impl Iteration {
    /// Driver steps per host second of the measured phases.
    pub fn sim_ops_per_s(&self) -> f64 {
        self.steps as f64 / (self.phase_ns as f64 / 1e9)
    }
}

/// Runs one iteration of `w` on a bare stack, with no probe at all.
///
/// # Errors
///
/// A failed audit or precondition.
pub fn bare<U: Testbed>(w: Workload, seed: u64, clock: HostClock) -> Result<Iteration, String> {
    iterate(w, seed, clock, |u: U, cfg, net| stack::bare(u, cfg, net))
}

/// Runs one iteration of `w` on a metered stack, which cuts each phase
/// into slices of identical work for the end-to-end host metrics.
///
/// # Errors
///
/// A failed audit or precondition.
pub fn metered<U: Testbed>(w: Workload, seed: u64, clock: HostClock) -> Result<Iteration, String> {
    iterate(w, seed, clock, |u: U, cfg, net| {
        stack::metered(u, cfg, net, clock)
    })
}

/// Runs one iteration of `w` with both probes in place.
///
/// # Errors
///
/// A failed audit or precondition.
pub fn traced<U: Testbed>(w: Workload, seed: u64, clock: HostClock) -> Result<Iteration, String> {
    iterate(w, seed, clock, |u: U, cfg, net| {
        stack::traced(u, cfg, net, clock)
    })
}

/// Builds the stack, generates the scripts and runs the unmeasured
/// set-up, returning the stack ready for its first phase.
fn set_up<U: Testbed, S: Stack>(
    w: Workload,
    seed: u64,
    build: impl FnOnce(U, CofsConfig, MdsNetwork) -> S,
) -> Result<(S, Vec<Phase>, Audit), String> {
    let (under, cfg, net) = U::build(w);
    let mut fs = build(under, cfg, net);
    let scripts = w.scripts(seed);
    let mut audit = Audit::default();
    audit.expect(std::slice::from_ref(&scripts.setup));
    let setup = run(&mut fs, vec![scripts.setup]);
    if let Some(e) = setup.errors.first() {
        return Err(format!("{}: set-up failed: {}", w.name(), e.error));
    }
    audit.outcome(w, &setup)?;
    fs.cofs_mut().phase_reset();
    fs.take_spans();
    Ok((fs, scripts.phases, audit))
}

fn iterate<U: Testbed, S: Stack>(
    w: Workload,
    seed: u64,
    clock: HostClock,
    build: impl FnOnce(U, CofsConfig, MdsNetwork) -> S,
) -> Result<Iteration, String> {
    let calibration_ns = (0..CALIBRATIONS)
        .map(|_| clock::calibration_ns(&clock))
        .min()
        .expect("at least one calibration");
    let t0 = clock.ns();
    let (mut fs, phases, mut audit) = set_up(w, seed, build)?;
    let setup_ns = clock.ns() - t0;
    let before = Snapshot::of(fs.cofs());

    let mut it = Iteration {
        setup_ns,
        calibration_ns,
        phase_ns: 0,
        slices_ns: Vec::new(),
        steps: 0,
        failed: 0,
        virt: Virtual {
            makespan: SimTime::ZERO,
            durable: SimTime::ZERO,
            labels: BTreeMap::new(),
        },
        counts: BTreeMap::new(),
        traces: Vec::new(),
    };
    let mut tally = Tally::default();
    let count = phases.len();
    for (i, phase) in phases.into_iter().enumerate() {
        audit.expect(&phase.clients);
        it.steps += phase
            .clients
            .iter()
            .flat_map(|c| &c.steps)
            .filter(|s| !matches!(s.action, Action::Barrier))
            .count() as u64;
        fs.take_ticks();
        let h0 = clock.ns();
        let report = run(&mut fs, phase.clients);
        let tail = fs.drain();
        let h1 = clock.ns();
        it.phase_ns += h1 - h0;
        let ticks = fs.take_ticks();
        if !ticks.is_empty() {
            let mut last = h0;
            for t in ticks.into_iter().chain([h1]) {
                it.slices_ns.push(t - last);
                last = t;
            }
        }
        let mut spans = fs.take_spans();
        if !spans.is_empty() {
            spans.push(Span {
                layer: Layer::Driver,
                op: phase.name,
                host_start: h0,
                host_end: h1,
                virt_start: SimTime::ZERO,
                virt_end: report.makespan,
            });
            it.traces.push(Trace::link(spans));
        }

        let makespan = tail.map_or(report.makespan, |t| report.makespan.max(t));
        let horizon = fs.cofs().apply_horizon(makespan);
        it.virt.makespan += makespan.saturating_since(SimTime::ZERO);
        it.virt.durable += horizon.saturating_since(SimTime::ZERO);
        for (label, s) in &report.per_label {
            it.virt
                .labels
                .entry(label)
                .or_insert_with(|| Summary::new(*label))
                .merge(s);
        }
        it.failed += report.errors.len() as u64;
        audit.outcome(w, &report)?;
        tally.phase(fs.cofs(), makespan, horizon);
        if i + 1 < count {
            fs.cofs_mut().phase_reset();
        }
    }
    audit.listings(w, &mut fs)?;
    fs.take_spans();
    for label in LABELS {
        let n = it.virt.samples(label);
        if n < MIN_SAMPLES {
            return Err(format!(
                "{}: {n} `{label}` samples, fewer than {MIN_SAMPLES}",
                w.name()
            ));
        }
    }
    it.counts = tally.finish(&before, &Snapshot::of(fs.cofs()), it.steps, it.failed);
    if it
        .counts
        .get("fault.lost_acked_ops")
        .copied()
        .unwrap_or(0.0)
        != 0.0
    {
        return Err(format!("{}: acked operations were lost", w.name()));
    }
    w.preconditions(&it.counts)?;
    Ok(it)
}

/// Cumulative counters that survive phase resets, as
/// `(metric, counter)` pairs: COFS, GPFS and its token manager.
const COFS_COUNTERS: [(&str, &str); 2] = [
    ("cofs.mds_rpcs", "mds_rpcs"),
    ("cofs.mds_batches", "mds_batches"),
];
const PFS_COUNTERS: [(&str, &str); 6] = [
    ("pfs.token_acquires", "token_acquires"),
    ("pfs.revocations", "revocations"),
    ("pfs.dir_hits", "dir_hits"),
    ("pfs.dir_misses", "dir_misses"),
    ("pfs.block_fetches", "block_fetches"),
    ("pfs.block_writebacks", "block_writebacks"),
];
const DLM_COUNTERS: [(&str, &str); 3] = [
    ("dlm.acquires", "acquires"),
    ("dlm.local_hits", "local_hits"),
    ("dlm.revocations", "revocations"),
];

/// The cumulative counters, read before and after the measured phases.
struct Snapshot(Vec<(&'static str, u64)>);

impl Snapshot {
    fn of<U: UnderFs>(fs: &CofsFs<U>) -> Snapshot {
        let read = |c: &simcore::stats::Counters, keys: &[(&'static str, &str)]| {
            keys.iter().map(|&(m, k)| (m, c.get(k))).collect::<Vec<_>>()
        };
        let mut v = read(fs.counters(), &COFS_COUNTERS);
        match fs.under().pfs() {
            Some(p) => {
                v.extend(read(p.counters(), &PFS_COUNTERS));
                v.extend(read(p.token_stats(), &DLM_COUNTERS));
            }
            None => v.extend(
                PFS_COUNTERS
                    .iter()
                    .chain(&DLM_COUNTERS)
                    .map(|&(m, _)| (m, 0)),
            ),
        }
        Snapshot(v)
    }
}

/// Per-layer counts accumulated over the measured phases, read from the
/// layers' public stats getters before each phase reset clears them.
#[derive(Default)]
struct Tally {
    sums: BTreeMap<&'static str, f64>,
    maxes: BTreeMap<&'static str, f64>,
}

impl Tally {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    fn max(&mut self, key: &'static str, v: f64) {
        let m = self.maxes.entry(key).or_insert(0.0);
        *m = m.max(v);
    }

    fn phase<U: UnderFs>(&mut self, fs: &CofsFs<U>, makespan: SimTime, horizon: SimTime) {
        let usage = fs.shard_usage();
        let span_ms = makespan.as_millis_f64();
        let rpcs: Vec<f64> = usage.iter().map(|u| u.rpcs as f64).collect();
        let mean_rpcs = rpcs.iter().sum::<f64>() / rpcs.len().max(1) as f64;
        let max_rpcs = rpcs.iter().copied().fold(0.0, f64::max);
        self.max("mds_cluster.skew", ratio(max_rpcs, mean_rpcs));
        self.max("mds_cluster.util_max", 0.0);
        for u in &usage {
            self.add("mds_cluster.rpcs", u.rpcs as f64);
            self.add("mds_cluster.busy_ms", u.busy.as_millis_f64());
            self.add(
                "mds_cluster.wait_ms_x_rpcs",
                u.mean_wait.as_millis_f64() * u.rpcs as f64,
            );
            self.max(
                "mds_cluster.util_max",
                ratio(u.busy.as_millis_f64(), span_ms),
            );
            self.add("mds_cluster.two_phase", u.two_phase as f64);
            self.add("mds_cluster.recalls", u.recalls as f64);
            self.add("mds_cluster.read_bypasses", u.read_bypasses as f64);
            self.max("mds_cluster.apply_lag_ms", u.apply_lag.as_millis_f64());
            self.add("metadb.reads_charged", u.reads_charged as f64);
            self.add("metadb.reads_memoized", u.reads_memoized as f64);
            self.add("metadb.journal_appends", u.journal_appends as f64);
            self.add("metadb.rows_coalesced", u.rows_coalesced as f64);
            self.add("elastic.splits", u.splits as f64);
            self.add("elastic.merges", u.merges as f64);
            self.add("elastic.migrations", u.migrations as f64);
        }
        self.add(
            "mds_cluster.apply_tail_ms",
            horizon.saturating_since(makespan).as_millis_f64(),
        );

        let c = fs.cache_stats();
        self.add("client_cache.hits", c.hits as f64);
        self.add("client_cache.misses", c.misses as f64);
        self.add("client_cache.invalidations", c.invalidations as f64);
        self.add("client_cache.recall_messages", c.recall_messages as f64);
        self.add("client_cache.expirations", c.expirations as f64);

        let b = fs.batch_stats();
        self.add("batch.ops_enqueued", b.ops_enqueued as f64);
        self.add("batch.batches_issued", b.batches_issued as f64);
        self.add("batch.flush_full", b.flush_full as f64);
        self.add("batch.flush_timer", b.flush_timer as f64);
        self.add("batch.flush_drain", b.flush_drain as f64);

        let f = fs.fault_summary().unwrap_or_default();
        self.add("fault.crashes", f.crashes as f64);
        self.add("fault.nacks", f.nacks as f64);
        self.add("fault.retries", f.retries as f64);
        self.add("fault.exhausted", f.exhausted as f64);
        self.add("fault.replayed_ops", f.replayed_ops as f64);
        self.add("fault.promotions", f.promotions as f64);
        self.add("fault.lag_replayed", f.lag_replayed as f64);
        self.add("fault.admission_defers", f.admission_defers as f64);
        self.max("fault.eio_nodes", f.eio_nodes as f64);
        self.max("fault.max_backoff_depth", f64::from(f.max_backoff_depth));
        self.add("fault.recovery_ms", f.recovery_ms);
        self.add("fault.lost_acked_ops", f.lost_acked_ops as f64);
        self.add("fault.gap_ms", f.gap_ms);
    }

    fn finish(
        mut self,
        before: &Snapshot,
        after: &Snapshot,
        steps: u64,
        failed: u64,
    ) -> BTreeMap<&'static str, f64> {
        for (&(name, a), &(_, b)) in before.0.iter().zip(&after.0) {
            self.sums.insert(name, (b - a) as f64);
        }
        let mut out = self.sums;
        out.extend(self.maxes);
        let get = |out: &BTreeMap<&'static str, f64>, k: &str| out.get(k).copied().unwrap_or(0.0);

        let hits = get(&out, "client_cache.hits");
        let misses = get(&out, "client_cache.misses");
        out.insert("client_cache.hit_rate", ratio(hits, hits + misses));
        let mean_ops = ratio(
            get(&out, "batch.ops_enqueued"),
            get(&out, "batch.batches_issued"),
        );
        out.insert("batch.mean_ops", mean_ops);
        let charged = get(&out, "metadb.reads_charged");
        let memoized = get(&out, "metadb.reads_memoized");
        out.insert("metadb.memo_ratio", ratio(memoized, charged + memoized));
        let wait = out.remove("mds_cluster.wait_ms_x_rpcs").unwrap_or(0.0);
        out.insert(
            "mds_cluster.mean_wait_ms",
            ratio(wait, get(&out, "mds_cluster.rpcs")),
        );
        out.insert("driver.error_ratio", ratio(failed as f64, steps as f64));
        out
    }
}

/// Output checks: only the expected errors, and every successful create
/// listed exactly once in its directory.
#[derive(Default)]
struct Audit {
    /// Created names per directory, and whether the create succeeded.
    created: BTreeMap<VPath, BTreeMap<String, bool>>,
    /// `(client, step)` of each create in the running phase, to match
    /// errors against.
    pending: Vec<(usize, usize, VPath)>,
}

impl Audit {
    fn expect(&mut self, clients: &[vfs::driver::ClientScript]) {
        self.pending.clear();
        for (c, script) in clients.iter().enumerate() {
            for (s, step) in script.steps.iter().enumerate() {
                if let Action::Create { path, .. } = &step.action {
                    self.pending.push((c, s, path.clone()));
                }
            }
        }
    }

    fn outcome(&mut self, w: Workload, report: &RunReport) -> Result<(), String> {
        for e in &report.errors {
            let allowed = w.tolerates_eio()
                && (e.error.is(Errno::EIO)
                    || e.error.is(Errno::EBADF)
                    || e.error.is(Errno::ENOENT));
            if !allowed {
                return Err(format!(
                    "{}: client {} step {} failed: {}",
                    w.name(),
                    e.client,
                    e.step,
                    e.error
                ));
            }
        }
        let failed: BTreeSet<(usize, usize)> =
            report.errors.iter().map(|e| (e.client, e.step)).collect();
        for (c, s, path) in self.pending.drain(..) {
            let dir = path.parent().expect("created files have a parent");
            let name = path
                .file_name()
                .expect("created files have a name")
                .to_string();
            let ok = !failed.contains(&(c, s));
            if self
                .created
                .entry(dir)
                .or_default()
                .insert(name, ok)
                .is_some()
            {
                return Err(format!(
                    "{}: {} created twice by the script",
                    w.name(),
                    path.as_str()
                ));
            }
        }
        Ok(())
    }

    /// Lists every directory the phases created in, well after every
    /// scripted fault window, and checks each successful create appears
    /// exactly once and nothing unknown appears.
    fn listings<S: Stack>(&self, w: Workload, fs: &mut S) -> Result<(), String> {
        let ctx = OpCtx::test(NodeId(0)).at(SimTime::from_secs(3600));
        for (dir, names) in &self.created {
            let listed = fs
                .readdir(&ctx, dir)
                .map_err(|e| format!("{}: audit readdir {}: {e}", w.name(), dir.as_str()))?
                .value;
            let mut seen: BTreeMap<&str, u32> = BTreeMap::new();
            for e in &listed {
                *seen.entry(e.name.as_str()).or_insert(0) += 1;
            }
            for (name, &ok) in names {
                let n = seen.get(name.as_str()).copied().unwrap_or(0);
                if ok && n != 1 {
                    return Err(format!(
                        "{}: {}/{name} created once but listed {n} times",
                        w.name(),
                        dir.as_str()
                    ));
                }
            }
            for (name, n) in &seen {
                if !names.contains_key(*name) || *n != 1 {
                    return Err(format!(
                        "{}: {}/{name} listed {n} times but never created",
                        w.name(),
                        dir.as_str()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofs::config::{CofsConfig, MdsNetwork};
    use netsim::ids::Pid;
    use simcore::time::SimDuration;
    use vfs::driver::ClientScript;
    use vfs::fs::FileSystem;
    use vfs::memfs::MemFs;
    use vfs::path::vpath;
    use vfs::types::Mode;

    /// A stack in which one client made `/d` and created three files,
    /// with the audit primed from its script.
    fn audited_run(extra: Option<Action>) -> (CofsFs<MemFs>, Audit, RunReport) {
        let net = MdsNetwork::uniform(SimDuration::from_micros(250));
        let mut fs = stack::bare(MemFs::new(), CofsConfig::default(), net);
        let mut s = ClientScript::new(NodeId(0), Pid(1));
        s.push(Action::Mkdir(vpath("/d"), Mode::dir_default()));
        for i in 0..3 {
            s.push(Action::Create {
                path: vpath(&format!("/d/f{i}")),
                mode: Mode::file_default(),
                slot: 0,
            });
            s.push(Action::Close { slot: 0 });
        }
        s.steps.extend(extra.map(vfs::driver::Step::new));
        let mut audit = Audit::default();
        audit.expect(std::slice::from_ref(&s));
        let report = run(&mut fs, vec![s]);
        (fs, audit, report)
    }

    fn ctx() -> OpCtx {
        OpCtx::test(NodeId(0)).at(SimTime::from_secs(1))
    }

    #[test]
    fn a_clean_run_passes() {
        let (mut fs, mut audit, report) = audited_run(None);
        audit.outcome(Workload::StormWide, &report).unwrap();
        audit.listings(Workload::StormWide, &mut fs).unwrap();
    }

    #[test]
    fn a_lost_create_fails() {
        let (mut fs, mut audit, report) = audited_run(None);
        audit.outcome(Workload::StormWide, &report).unwrap();
        fs.unlink(&ctx(), &vpath("/d/f1")).unwrap();
        assert!(audit.listings(Workload::StormWide, &mut fs).is_err());
    }

    #[test]
    fn an_entry_nobody_created_fails() {
        let (mut fs, mut audit, report) = audited_run(None);
        audit.outcome(Workload::StormWide, &report).unwrap();
        let fh = fs
            .create(&ctx(), &vpath("/d/stray"), Mode::file_default())
            .unwrap()
            .value;
        fs.close(&ctx(), fh).unwrap();
        assert!(audit.listings(Workload::StormWide, &mut fs).is_err());
    }

    #[test]
    fn errors_fail_except_the_eio_family_under_faults() {
        let missing = Some(Action::Stat(vpath("/d/missing")));
        let (_, mut audit, report) = audited_run(missing.clone());
        assert!(audit.outcome(Workload::StormWide, &report).is_err());
        let (_, mut audit, report) = audited_run(missing);
        audit.outcome(Workload::CascadeFaults, &report).unwrap();
    }
}
