//! The benchmark's own checks: virtual time does not depend on the
//! timing probes or on the run, a seed never used while tuning the
//! workloads runs audit-clean, per-layer self times add up to the
//! traced total, and `BENCHMARK.json` names exactly the metrics the
//! benchmark prints.

use cofs_perfbench::clock::HostClock;
use cofs_perfbench::measure::{self, Iteration};
use cofs_perfbench::workload::{Testbed, Workload};
use cofs_perfbench::{end_to_end, per_layer, COUNTS};
use pfs::fs::PfsFs;
use vfs::memfs::MemFs;

/// A seed kept out of every tuning run.
const HELD_OUT_SEED: u64 = 0x5EED_0B5E;

fn check<U: Testbed>(w: Workload) -> (Vec<Iteration>, Vec<Iteration>) {
    let clock = HostClock::start();
    let bare = measure::bare::<U>(w, 7, clock).expect("bare run");
    let a = measure::metered::<U>(w, 7, clock).expect("first metered run");
    let b = measure::metered::<U>(w, 7, clock).expect("second metered run");
    let t = measure::traced::<U>(w, 7, clock).expect("traced run");
    assert!(a.virt.same_as(&b.virt), "{}: two runs differ", w.name());
    assert_eq!(
        a.slices_ns.len(),
        b.slices_ns.len(),
        "{}: slices differ",
        w.name()
    );
    for probed in [&a, &t] {
        assert!(
            bare.virt.same_as(&probed.virt),
            "{}: the probes changed virtual time",
            w.name()
        );
        assert_eq!(
            bare.counts,
            probed.counts,
            "{}: the probes changed a count",
            w.name()
        );
    }
    let counted: Vec<&str> = a.counts.keys().copied().collect();
    let mut reported: Vec<&str> = COUNTS.iter().map(|c| c.0).collect();
    reported.sort_unstable();
    assert_eq!(
        counted,
        reported,
        "{}: counts read but not reported",
        w.name()
    );

    assert_eq!(t.traces.len(), w.scripts(7).phases.len());
    for trace in &t.traces {
        assert_eq!(trace.orphans(), 0, "{}: unparented spans", w.name());
        assert_eq!(
            trace.self_ns().iter().sum::<u64>(),
            trace.root_ns(),
            "{}: self times do not sum to the traced total",
            w.name()
        );
    }

    let held = measure::metered::<U>(w, HELD_OUT_SEED, clock).expect("held-out seed");
    assert_eq!(held.failed, 0, "{}: held-out seed had failures", w.name());
    assert!(
        !held.virt.same_as(&a.virt),
        "{}: the seed does not change the workload",
        w.name()
    );
    (vec![a, b], vec![t])
}

/// Names of the metrics listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let section = &json[start..];
    let end = section.find(']').expect("section is a list");
    section[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn every_workload_is_deterministic_probe_neutral_and_audit_clean() {
    let mut e2e = Vec::new();
    let mut layers = Vec::new();
    for w in Workload::ALL {
        let (metered, traced) = match w {
            Workload::MetaratesGpfs => check::<PfsFs>(w),
            _ => check::<MemFs>(w),
        };
        e2e = end_to_end(&metered);
        layers = per_layer(&metered, &traced);
    }
    // `peak_rss_mb` is measured by the runner, outside this process.
    let mut names: Vec<String> = e2e.iter().map(|m| m.0.to_string()).collect();
    names.push("peak_rss_mb".to_string());
    names.sort();
    let mut json = listed("end_to_end");
    json.sort();
    assert_eq!(names, json);
    let names: Vec<String> = layers.iter().map(|m| m.0.to_string()).collect();
    assert_eq!(names, listed("per_layer"));
}

#[test]
fn preconditions_fail_when_their_mechanism_is_not_reached() {
    let none = Default::default();
    for w in Workload::ALL {
        assert!(w.preconditions(&none).is_err(), "{}", w.name());
    }
    // `storm_wide` must not reach the client cache.
    let mut counts = std::collections::BTreeMap::new();
    counts.insert("mds_cluster.mean_wait_ms", 1.0);
    assert!(Workload::StormWide.preconditions(&counts).is_ok());
    counts.insert("client_cache.hits", 1.0);
    assert!(Workload::StormWide.preconditions(&counts).is_err());
    // Batches of one op do not exercise batching.
    let mut counts: std::collections::BTreeMap<&str, f64> = [
        "client_cache.hits",
        "client_cache.invalidations",
        "metadb.journal_appends",
        "elastic.splits",
        "mds_cluster.read_bypasses",
    ]
    .into_iter()
    .map(|k| (k, 1.0))
    .collect();
    counts.insert("batch.mean_ops", 2.0);
    assert!(Workload::MixedAllOn.preconditions(&counts).is_ok());
    counts.insert("batch.mean_ops", 1.0);
    assert!(Workload::MixedAllOn.preconditions(&counts).is_err());
}
