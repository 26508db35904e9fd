//! Semantics of the virtual-time driver itself: FIFO fairness,
//! barrier correctness, and determinism of whole benchmark runs.

use netsim::ids::{NodeId, Pid};
use simcore::time::SimDuration;
use vfs::driver::{run, Action, ClientScript};
use vfs::memfs::MemFs;
use vfs::path::vpath;
use vfs::types::Mode;

/// Whole metarates phases are bit-for-bit deterministic: two identical
/// runs on identical stacks produce identical means and makespans.
#[test]
fn benchmark_runs_are_deterministic() {
    use cofs_tests::cofs_over_gpfs;
    use workloads::metarates::{run_phase, MetaOp, MetaratesConfig};
    let cfg = MetaratesConfig::new(4, 64);
    let a = run_phase(&mut cofs_over_gpfs(4), &cfg, MetaOp::Create);
    let b = run_phase(&mut cofs_over_gpfs(4), &cfg, MetaOp::Create);
    assert_eq!(a.summary.samples(), b.summary.samples());
    assert_eq!(a.makespan, b.makespan);
}

/// Barriers release everyone at the same instant, in every round.
#[test]
fn barrier_rounds_stay_aligned() {
    let mut scripts = Vec::new();
    for n in 0..4u32 {
        let mut s = ClientScript::new(NodeId(n), Pid(1));
        for round in 0..3 {
            s.push(Action::Barrier);
            // Uneven work per client per round.
            for i in 0..=(n as usize) {
                s.push(Action::Create {
                    path: vpath(&format!("/f{n}.{round}.{i}")),
                    mode: Mode::file_default(),
                    slot: 0,
                });
                s.push(Action::Close { slot: 0 });
            }
        }
        scripts.push(s);
    }
    let report = run(&mut MemFs::new(), scripts);
    report.expect_clean();
    // Every client's end lies within one round of the makespan: nobody
    // raced ahead through a barrier.
    for (i, end) in report.client_end.iter().enumerate() {
        let lag = report.makespan.saturating_since(*end);
        assert!(
            lag < SimDuration::from_millis(1),
            "client {i} lagged {lag} behind the makespan"
        );
    }
}

/// The min-clock discipline is fair: with identical scripts, per-client
/// measured work is identical.
#[test]
fn identical_clients_measure_identically() {
    let mut scripts = Vec::new();
    for n in 0..3u32 {
        let mut s = ClientScript::new(NodeId(n), Pid(1));
        s.push(Action::Mkdir(vpath(&format!("/d{n}")), Mode::dir_default()));
        for i in 0..10 {
            s.push_measured(
                "create",
                Action::Create {
                    path: vpath(&format!("/d{n}/f{i}")),
                    mode: Mode::file_default(),
                    slot: 0,
                },
            );
            s.push(Action::Close { slot: 0 });
        }
        scripts.push(s);
    }
    let report = run(&mut MemFs::new(), scripts);
    report.expect_clean();
    assert_eq!(report.per_label["create"].count(), 30);
    // On MemFs every op costs the same: zero variance.
    assert!(report.per_label["create"].std_dev_millis() < 1e-6);
}

/// The heap dispatch picks exactly what a linear min-clock scan picks.
mod dispatch_order {
    use super::*;
    use proptest::prelude::*;
    use simcore::time::SimTime;
    use std::collections::BTreeMap;
    use vfs::driver::Step;
    use vfs::fs::{FileSystem, OpCtx};
    use vfs::types::FileHandle;

    /// Shared names, so what a step finds depends on which client ran
    /// before it.
    const NAMES: u8 = 4;

    /// One client script from `(kind, name)` draws. Every kind can fail:
    /// creates of an existing name, closes of an empty slot, stats and
    /// unlinks of a missing name.
    fn script(node: u32, draws: &[(u8, u8)]) -> ClientScript {
        let mut s = ClientScript::new(NodeId(node), Pid(1));
        for &(kind, name) in draws {
            let path = vpath(&format!("/p{name}"));
            match kind {
                0 => s.push_measured(
                    "create",
                    Action::Create {
                        path,
                        mode: Mode::file_default(),
                        slot: 0,
                    },
                ),
                1 => s.push(Action::Close { slot: 0 }),
                2 => s.push_measured("stat", Action::Stat(path)),
                3 => s.push_measured("stat", Action::Stat(vpath("/missing"))),
                4 => s.push_measured("unlink", Action::Unlink(path)),
                5 => s.push(Action::Mkdir(
                    vpath(&format!("/d{name}")),
                    Mode::dir_default(),
                )),
                _ => s.push(Action::Barrier),
            };
        }
        s
    }

    /// What the reference driver measured.
    struct Reference {
        per_label: BTreeMap<&'static str, Vec<SimDuration>>,
        errors: Vec<(usize, usize)>,
        client_end: Vec<SimTime>,
        /// Dispatches at which two or more runnable clients shared the
        /// smallest clock.
        ties: usize,
    }

    /// The min-clock discipline as a linear scan over every client on
    /// every step, for the actions [`script`] generates.
    fn linear_scan<F: FileSystem>(fs: &mut F, scripts: &[ClientScript]) -> Reference {
        let n = scripts.len();
        let mut clock = vec![SimTime::ZERO; n];
        let mut next = vec![0usize; n];
        let mut at_barrier = vec![false; n];
        let mut slot: Vec<Option<FileHandle>> = vec![None; n];
        let finished = |next: &[usize], i: usize| next[i] >= scripts[i].steps.len();
        let mut out = Reference {
            per_label: BTreeMap::new(),
            errors: Vec::new(),
            client_end: Vec::new(),
            ties: 0,
        };
        loop {
            let unfinished: Vec<usize> = (0..n).filter(|&i| !finished(&next, i)).collect();
            if unfinished.is_empty() {
                break;
            }
            if unfinished.iter().all(|&i| at_barrier[i]) {
                let release = unfinished.iter().map(|&i| clock[i]).max().unwrap();
                for &i in &unfinished {
                    clock[i] = release;
                    at_barrier[i] = false;
                    next[i] += 1;
                }
                continue;
            }
            let runnable = unfinished.iter().copied().filter(|&i| !at_barrier[i]);
            let idx = runnable.clone().min_by_key(|&i| (clock[i], i)).unwrap();
            if runnable.filter(|&i| clock[i] == clock[idx]).count() > 1 {
                out.ties += 1;
            }
            let Step { action, label } = &scripts[idx].steps[next[idx]];
            if matches!(action, Action::Barrier) {
                at_barrier[idx] = true;
                continue;
            }
            let c = &scripts[idx];
            let ctx = OpCtx {
                node: c.node,
                pid: c.pid,
                uid: c.uid,
                gid: c.gid,
                now: clock[idx],
            };
            let outcome = match action {
                Action::Create { path, mode, .. } => fs.create(&ctx, path, *mode).map(|t| {
                    slot[idx] = Some(t.value);
                    t.end
                }),
                Action::Close { .. } => match slot[idx].take() {
                    Some(fh) => fs.close(&ctx, fh).map(|t| t.end),
                    None => Err(vfs::error::FsError::new(
                        vfs::error::Errno::EBADF,
                        "close",
                        "slot 0",
                    )),
                },
                Action::Stat(path) => fs.stat(&ctx, path).map(|t| t.end),
                Action::Unlink(path) => fs.unlink(&ctx, path).map(|t| t.end),
                Action::Mkdir(path, mode) => fs.mkdir(&ctx, path, *mode).map(|t| t.end),
                other => unreachable!("not generated: {other:?}"),
            };
            clock[idx] = match outcome {
                Ok(end) => {
                    if let Some(label) = label {
                        let sample = end.saturating_since(ctx.now);
                        out.per_label.entry(label).or_default().push(sample);
                    }
                    end
                }
                Err(e) => {
                    out.errors.push((idx, next[idx]));
                    e.end()
                        .unwrap_or(ctx.now + SimDuration::from_micros(10))
                        .max(ctx.now)
                }
            };
            next[idx] += 1;
        }
        out.client_end = clock;
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Uneven scripts with barriers anywhere, clients that finish
        /// before others reach a barrier, failing steps, and clocks that
        /// tie: `run` reports what the linear scan reports.
        #[test]
        fn heap_dispatch_matches_linear_scan(
            draws in prop::collection::vec(
                prop::collection::vec((0u8..9, 0u8..NAMES), 0..24),
                1..65,
            ),
        ) {
            let scripts: Vec<ClientScript> = draws
                .iter()
                .enumerate()
                .map(|(i, d)| script(i as u32, d))
                .collect();
            let reference = linear_scan(&mut MemFs::new(), &scripts);
            let report = run(&mut MemFs::new(), scripts);

            prop_assert_eq!(&report.client_end, &reference.client_end);
            let makespan = reference.client_end.iter().copied().max().unwrap();
            prop_assert_eq!(report.makespan, makespan);
            let errors: Vec<(usize, usize)> =
                report.errors.iter().map(|e| (e.client, e.step)).collect();
            prop_assert_eq!(&errors, &reference.errors);
            let per_label: BTreeMap<&'static str, Vec<SimDuration>> = report
                .per_label
                .iter()
                .map(|(&label, s)| (label, s.samples().iter().collect()))
                .collect();
            prop_assert_eq!(&per_label, &reference.per_label);
            // Every client with a step starts at time zero, so the
            // first dispatch ties whenever two clients have work.
            let busy = draws.iter().filter(|d| !d.is_empty()).count();
            prop_assert!(busy < 2 || reference.ties > 0, "no tie exercised");
        }
    }
}
