//! # cofs-perfbench — the COFS simulator measured on two clocks
//!
//! *Virtual time* is the modelled COFS: makespans and per-operation
//! latencies, deterministic for a given workload seed. *Host time* is
//! the simulator's own cost: simulated operations per host second and
//! set-up time. A run on a metered stack reports the end-to-end metrics
//! ([`end_to_end`]); a traced run records spans at the two `FileSystem`
//! boundaries with [`probe::Probe`]s and reports the per-layer metrics
//! ([`per_layer`]). See `README.md` beside this crate for what each
//! metric means and which change should move it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod measure;
pub mod probe;
pub mod stack;
pub mod workload;

use measure::Iteration;
use probe::{Layer, Trace};

/// A reported metric: name, value and unit.
pub type Metric = (&'static str, f64, &'static str);

/// The median of `values` (the mean of the middle two for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The calibration kernel's fastest time on the 2-vCPU VM the workloads
/// were sized on. Host-time metrics are scaled to read as if measured on
/// a host that runs the kernel this fast.
pub const REFERENCE_CALIBRATION_NS: f64 = 1.7e6;

/// How fast the host ran during `iters`, relative to the reference: the
/// reference calibration time over the fastest calibration of the run.
/// On a shared machine the host's speed drifts by a fifth or more over
/// minutes; the calibration kernel slows down with it, so scaling by
/// this factor takes most of the drift out of host-time metrics.
///
/// # Panics
///
/// Panics if `iters` is empty.
pub fn host_speed(iters: &[Iteration]) -> f64 {
    let fastest = iters
        .iter()
        .map(|i| i.calibration_ns)
        .min()
        .expect("at least one iteration");
    REFERENCE_CALIBRATION_NS / fastest as f64
}

/// Driver steps per host second of the measured phases, with each
/// slice of the phases timed at its fastest across `iters`. The slices
/// are the same work in every iteration, so the fastest time of each
/// slice is the one least disturbed by the rest of the machine. Not
/// scaled by [`host_speed`].
///
/// # Panics
///
/// Panics if the iterations were not metered or sliced differently.
pub fn slice_ops_per_s(iters: &[Iteration]) -> f64 {
    let slices = iters[0].slices_ns.len();
    assert!(slices > 0, "iterations carry no slices");
    let best: u64 = (0..slices)
        .map(|k| {
            iters
                .iter()
                .map(|i| {
                    assert_eq!(i.slices_ns.len(), slices, "iterations sliced differently");
                    i.slices_ns[k]
                })
                .min()
                .expect("at least one iteration")
        })
        .sum();
    iters[0].steps as f64 / (best as f64 / 1e9)
}

/// The highest `sim_ops_per_s` among `iters`.
fn fastest(iters: &[Iteration]) -> f64 {
    iters
        .iter()
        .map(Iteration::sim_ops_per_s)
        .fold(0.0, f64::max)
}

/// The median set-up time of `iters`, in host seconds, not scaled by
/// [`host_speed`].
///
/// # Panics
///
/// Panics if `iters` is empty.
pub fn median_setup_s(iters: &[Iteration]) -> f64 {
    median(iters.iter().map(|i| i.setup_ns as f64 / 1e9).collect())
}

/// `n / d`, or 0 when `d` is not positive.
pub(crate) fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// The end-to-end metrics of a metered run, except `peak_rss_mb`,
/// which the runner measures from outside the process. Virtual-time
/// metrics are identical in every iteration. `sim_ops_per_s` is
/// [`slice_ops_per_s`] and `setup_s` the median set-up, both scaled to
/// the reference host by [`host_speed`].
///
/// # Panics
///
/// Panics if `iters` is empty.
pub fn end_to_end(iters: &[Iteration]) -> Vec<Metric> {
    let v = &iters[0].virt;
    let speed = host_speed(iters);
    vec![
        ("sim_ops_per_s", slice_ops_per_s(iters) / speed, "1/s"),
        ("setup_s", median_setup_s(iters) * speed, "s"),
        ("makespan_ms", v.makespan.as_millis_f64(), "ms"),
        ("durable_ms", v.durable.as_millis_f64(), "ms"),
        ("create_mean_ms", v.mean_ms("create"), "ms"),
        ("stat_mean_ms", v.mean_ms("stat"), "ms"),
    ]
}

/// Per-layer counts read from the layers' stats getters, with units, in
/// report order.
pub const COUNTS: [(&str, &str); 55] = [
    ("cofs.mds_rpcs", "count"),
    ("cofs.mds_batches", "count"),
    ("client_cache.hits", "count"),
    ("client_cache.misses", "count"),
    ("client_cache.hit_rate", "ratio"),
    ("client_cache.invalidations", "count"),
    ("client_cache.recall_messages", "count"),
    ("client_cache.expirations", "count"),
    ("batch.ops_enqueued", "count"),
    ("batch.batches_issued", "count"),
    ("batch.mean_ops", "count"),
    ("batch.flush_full", "count"),
    ("batch.flush_timer", "count"),
    ("batch.flush_drain", "count"),
    ("mds_cluster.rpcs", "count"),
    ("mds_cluster.busy_ms", "ms"),
    ("mds_cluster.util_max", "ratio"),
    ("mds_cluster.mean_wait_ms", "ms"),
    ("mds_cluster.skew", "ratio"),
    ("mds_cluster.two_phase", "count"),
    ("mds_cluster.recalls", "count"),
    ("mds_cluster.read_bypasses", "count"),
    ("mds_cluster.apply_lag_ms", "ms"),
    ("mds_cluster.apply_tail_ms", "ms"),
    ("metadb.reads_charged", "count"),
    ("metadb.reads_memoized", "count"),
    ("metadb.memo_ratio", "ratio"),
    ("metadb.journal_appends", "count"),
    ("metadb.rows_coalesced", "count"),
    ("elastic.splits", "count"),
    ("elastic.merges", "count"),
    ("elastic.migrations", "count"),
    ("fault.crashes", "count"),
    ("fault.nacks", "count"),
    ("fault.retries", "count"),
    ("fault.exhausted", "count"),
    ("fault.replayed_ops", "count"),
    ("fault.promotions", "count"),
    ("fault.lag_replayed", "count"),
    ("fault.admission_defers", "count"),
    ("fault.eio_nodes", "count"),
    ("fault.max_backoff_depth", "count"),
    ("fault.recovery_ms", "ms"),
    ("fault.lost_acked_ops", "count"),
    ("fault.gap_ms", "ms"),
    ("pfs.token_acquires", "count"),
    ("pfs.revocations", "count"),
    ("pfs.dir_hits", "count"),
    ("pfs.dir_misses", "count"),
    ("pfs.block_fetches", "count"),
    ("pfs.block_writebacks", "count"),
    ("dlm.acquires", "count"),
    ("dlm.local_hits", "count"),
    ("dlm.revocations", "count"),
    ("driver.error_ratio", "ratio"),
];

/// Host-time metrics of one traced iteration.
fn host_layers(it: &Iteration) -> Vec<Metric> {
    let mut self_ns = [0u64; 3];
    for t in &it.traces {
        for (acc, ns) in self_ns.iter_mut().zip(t.self_ns()) {
            *acc += ns;
        }
    }
    // Shares are taken over the first measured phase: the only phase of
    // most workloads, and the create phase of `metarates_gpfs`.
    let first = it.traces.first().map_or([0; 3], Trace::self_ns);
    let first_total: u64 = first.iter().sum();
    let share = |l: Layer| ratio(first[l as usize] as f64, first_total as f64);
    let per_call = |op: &str| {
        let (n, ns) = it
            .traces
            .iter()
            .map(|t| t.calls(Layer::Cofs, Some(op)))
            .fold((0, 0), |(a, b), (n, ns)| (a + n, b + ns));
        ratio(ns as f64, n as f64)
    };
    let (under_calls, _) = it
        .traces
        .iter()
        .map(|t| t.calls(Layer::Under, None))
        .fold((0, 0), |(a, b), (n, ns)| (a + n, b + ns));
    let secs = |l: Layer| self_ns[l as usize] as f64 / 1e9;
    vec![
        ("driver.self_s", secs(Layer::Driver), "s"),
        (
            "driver.ns_per_step",
            ratio(self_ns[Layer::Driver as usize] as f64, it.steps as f64),
            "ns",
        ),
        ("driver.share", share(Layer::Driver), "ratio"),
        ("cofs.self_s", secs(Layer::Cofs), "s"),
        ("cofs.share", share(Layer::Cofs), "ratio"),
        ("cofs.ns_per_call.create", per_call("create"), "ns"),
        ("cofs.ns_per_call.stat", per_call("stat"), "ns"),
        ("cofs.ns_per_call.close", per_call("close"), "ns"),
        ("cofs.ns_per_call.readdir", per_call("readdir"), "ns"),
        ("under.self_s", secs(Layer::Under), "s"),
        ("under.calls", under_calls as f64, "count"),
        (
            "under.ns_per_call",
            ratio(self_ns[Layer::Under as usize] as f64, under_calls as f64),
            "ns",
        ),
        ("under.share", share(Layer::Under), "ratio"),
    ]
}

/// The per-layer metrics of a traced run: host-time attribution from
/// the probes' spans (medians over the traced iterations), the layers'
/// counts, sample counts, and the tracing overhead measured against
/// the metered iterations interleaved with the traced ones.
///
/// # Panics
///
/// Panics if either slice is empty.
pub fn per_layer(metered: &[Iteration], traced: &[Iteration]) -> Vec<Metric> {
    let first = &traced[0];
    let mut out: Vec<Metric> = vec![
        ("driver.steps", first.steps as f64, "count"),
        (
            "driver.samples.create",
            first.virt.samples("create") as f64,
            "count",
        ),
        (
            "driver.samples.stat",
            first.virt.samples("stat") as f64,
            "count",
        ),
        (
            "driver.create_p50_ms",
            first.virt.quantile_ms("create", 0.5),
            "ms",
        ),
        (
            "driver.create_p99_ms",
            first.virt.quantile_ms("create", 0.99),
            "ms",
        ),
        (
            "driver.stat_p50_ms",
            first.virt.quantile_ms("stat", 0.5),
            "ms",
        ),
        (
            "driver.stat_p99_ms",
            first.virt.quantile_ms("stat", 0.99),
            "ms",
        ),
    ];
    let hosts: Vec<Vec<Metric>> = traced.iter().map(host_layers).collect();
    for (k, &(name, _, unit)) in hosts[0].iter().enumerate() {
        out.push((name, median(hosts.iter().map(|h| h[k].1).collect()), unit));
    }
    for (name, unit) in COUNTS {
        out.push((name, first.counts[name], unit));
    }
    out.push(("host.speed", host_speed(metered), "ratio"));
    let plain = fastest(metered);
    let probed = fastest(traced);
    out.push(("trace.sim_ops_per_s", probed, "1/s"));
    out.push((
        "trace.overhead_pct",
        ratio(plain - probed, plain) * 100.0,
        "%",
    ));
    out
}

/// The result line: one JSON object with the run's verdict and metrics.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
