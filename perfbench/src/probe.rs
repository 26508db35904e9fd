//! Timing wrappers at the two `FileSystem` boundaries, and the spans
//! they record.
//!
//! [`Probe`] wraps any filesystem and forwards every call unchanged.
//! What it records depends on its [`Record`] mode. Tracing records one
//! [`Span`] per call: its layer, operation, host start and end, and
//! virtual start and end. Ticking records only the host time of every
//! `n`th call, which cuts a run into slices of identical work from one
//! iteration to the next. A probed stack is `Probe<CofsFs<Probe<U>>>`:
//! the outer probe sits at the driver→`CofsFs` boundary, the inner one
//! at the `CofsFs`→underlying boundary. Probes hold no shared state;
//! parents are recovered after the run from host-time containment
//! ([`Trace::link`]), which is exact because the simulator is
//! single-threaded and calls nest strictly.

use crate::clock::HostClock;
use simcore::time::SimTime;
use std::io::{self, Write};
use vfs::fs::{FileSystem, FsResult, OpCtx};
use vfs::path::VPath;
use vfs::types::{DirEntry, FileAttr, FileHandle, FsStats, Mode, OpenFlags, SetAttr};

/// The layers the benchmark attributes host time to, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `vfs::driver::run`: script dispatch and latency bookkeeping.
    Driver,
    /// `cofs::fs::CofsFs`, including its cache, batch, shard-cluster and
    /// metadata-database internals.
    Cofs,
    /// The filesystem under COFS (`MemFs` or `PfsFs`).
    Under,
}

impl Layer {
    /// Every layer, outermost first.
    pub const ALL: [Layer; 3] = [Layer::Driver, Layer::Cofs, Layer::Under];

    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::Cofs => "cofs",
            Layer::Under => "under",
        }
    }
}

/// One timed call across a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer the call entered.
    pub layer: Layer,
    /// The operation (`create`, `stat`, … or a phase name for driver
    /// spans).
    pub op: &'static str,
    /// Host nanoseconds at entry.
    pub host_start: u64,
    /// Host nanoseconds at return.
    pub host_end: u64,
    /// Virtual time the call was issued at.
    pub virt_start: SimTime,
    /// Virtual time the call completed (or failed) at.
    pub virt_end: SimTime,
}

impl Span {
    /// Host nanoseconds spent inside the call.
    pub fn host_ns(&self) -> u64 {
        self.host_end - self.host_start
    }
}

/// What a [`Probe`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// Nothing: calls pass straight through.
    Off,
    /// The host time after every `n`th call.
    Ticks(u64),
    /// A [`Span`] per call.
    Spans,
}

/// A pass-through filesystem that times the calls it forwards.
#[derive(Debug)]
pub struct Probe<F> {
    inner: F,
    layer: Layer,
    clock: HostClock,
    record: Record,
    calls: u64,
    ticks: Vec<u64>,
    spans: Vec<Span>,
}

impl<F> Probe<F> {
    /// Wraps `inner`, attributing its calls to `layer`.
    pub fn new(inner: F, layer: Layer, clock: HostClock, record: Record) -> Self {
        Probe {
            inner,
            layer,
            clock,
            record,
            calls: 0,
            ticks: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The wrapped filesystem.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The wrapped filesystem, mutably. Calls made through it are not
    /// recorded; see [`Probe::timed`].
    pub fn inner_mut(&mut self) -> &mut F {
        &mut self.inner
    }

    /// Takes the spans recorded so far.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    /// Takes the ticks recorded so far and restarts the call count, so
    /// the next tick falls `n` calls from now.
    pub fn take_ticks(&mut self) -> Vec<u64> {
        self.calls = 0;
        std::mem::take(&mut self.ticks)
    }

    /// Runs `f` on the wrapped filesystem and, when recording spans,
    /// records it as a span of this probe's layer, issued at `now` and
    /// completing at the virtual time `f` reports.
    pub fn timed<T>(
        &mut self,
        op: &'static str,
        now: SimTime,
        f: impl FnOnce(&mut F) -> (T, SimTime),
    ) -> T {
        if self.record != Record::Spans {
            return f(&mut self.inner).0;
        }
        let host_start = self.clock.ns();
        let (value, virt_end) = f(&mut self.inner);
        let host_end = self.clock.ns();
        self.spans.push(Span {
            layer: self.layer,
            op,
            host_start,
            host_end,
            virt_start: now,
            virt_end,
        });
        value
    }

    fn call<T>(
        &mut self,
        op: &'static str,
        ctx: &OpCtx,
        f: impl FnOnce(&mut F) -> FsResult<T>,
    ) -> FsResult<T> {
        if let Record::Ticks(n) = self.record {
            let r = f(&mut self.inner);
            self.calls += 1;
            if self.calls.is_multiple_of(n) {
                self.ticks.push(self.clock.ns());
            }
            return r;
        }
        self.timed(op, ctx.now, |fs| {
            let r = f(fs);
            let end = match &r {
                Ok(t) => t.end,
                Err(e) => e.end().unwrap_or(ctx.now),
            };
            (r, end)
        })
    }
}

impl<F: FileSystem> FileSystem for Probe<F> {
    fn mkdir(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<()> {
        self.call("mkdir", ctx, |fs| fs.mkdir(ctx, path, mode))
    }
    fn rmdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()> {
        self.call("rmdir", ctx, |fs| fs.rmdir(ctx, path))
    }
    fn create(&mut self, ctx: &OpCtx, path: &VPath, mode: Mode) -> FsResult<FileHandle> {
        self.call("create", ctx, |fs| fs.create(ctx, path, mode))
    }
    fn open(&mut self, ctx: &OpCtx, path: &VPath, flags: OpenFlags) -> FsResult<FileHandle> {
        self.call("open", ctx, |fs| fs.open(ctx, path, flags))
    }
    fn close(&mut self, ctx: &OpCtx, fh: FileHandle) -> FsResult<()> {
        self.call("close", ctx, |fs| fs.close(ctx, fh))
    }
    fn read(&mut self, ctx: &OpCtx, fh: FileHandle, offset: u64, len: u64) -> FsResult<u64> {
        self.call("read", ctx, |fs| fs.read(ctx, fh, offset, len))
    }
    fn write(&mut self, ctx: &OpCtx, fh: FileHandle, offset: u64, len: u64) -> FsResult<u64> {
        self.call("write", ctx, |fs| fs.write(ctx, fh, offset, len))
    }
    fn stat(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<FileAttr> {
        self.call("stat", ctx, |fs| fs.stat(ctx, path))
    }
    fn setattr(&mut self, ctx: &OpCtx, path: &VPath, set: SetAttr) -> FsResult<FileAttr> {
        self.call("setattr", ctx, |fs| fs.setattr(ctx, path, set))
    }
    fn readdir(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<Vec<DirEntry>> {
        self.call("readdir", ctx, |fs| fs.readdir(ctx, path))
    }
    fn unlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<()> {
        self.call("unlink", ctx, |fs| fs.unlink(ctx, path))
    }
    fn rename(&mut self, ctx: &OpCtx, from: &VPath, to: &VPath) -> FsResult<()> {
        self.call("rename", ctx, |fs| fs.rename(ctx, from, to))
    }
    fn link(&mut self, ctx: &OpCtx, existing: &VPath, new: &VPath) -> FsResult<()> {
        self.call("link", ctx, |fs| fs.link(ctx, existing, new))
    }
    fn symlink(&mut self, ctx: &OpCtx, target: &str, new: &VPath) -> FsResult<()> {
        self.call("symlink", ctx, |fs| fs.symlink(ctx, target, new))
    }
    fn readlink(&mut self, ctx: &OpCtx, path: &VPath) -> FsResult<String> {
        self.call("readlink", ctx, |fs| fs.readlink(ctx, path))
    }
    fn statfs(&mut self, ctx: &OpCtx) -> FsResult<FsStats> {
        self.call("statfs", ctx, |fs| fs.statfs(ctx))
    }
    // Forwarded rather than left to the trait defaults, so a wrapped
    // filesystem that overrides them is called exactly as it would be
    // unwrapped.
    fn utime(&mut self, ctx: &OpCtx, path: &VPath, atime: SimTime, mtime: SimTime) -> FsResult<()> {
        self.call("utime", ctx, |fs| fs.utime(ctx, path, atime, mtime))
    }
    fn truncate(&mut self, ctx: &OpCtx, path: &VPath, size: u64) -> FsResult<()> {
        self.call("truncate", ctx, |fs| fs.truncate(ctx, path, size))
    }
}

/// The spans of one traced iteration, linked into a tree.
#[derive(Debug, Default)]
pub struct Trace {
    /// Every span, ordered by host start (a parent precedes its
    /// children).
    pub spans: Vec<Span>,
    /// Index of each span's parent in `spans`; `None` for roots.
    pub parent: Vec<Option<usize>>,
}

impl Trace {
    /// Links spans gathered from the probes into a tree. A span's
    /// parent is the innermost span of an outer layer whose host
    /// interval contains it.
    pub fn link(mut spans: Vec<Span>) -> Trace {
        spans.sort_by_key(|s| (s.host_start, s.layer, std::cmp::Reverse(s.host_end)));
        let mut parent = Vec::with_capacity(spans.len());
        // Open spans, outermost first: strict nesting makes this a stack.
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                let t = &spans[top];
                if t.layer < s.layer && t.host_start <= s.host_start && s.host_end <= t.host_end {
                    break;
                }
                open.pop();
            }
            parent.push(open.last().copied());
            open.push(i);
        }
        Trace { spans, parent }
    }

    /// Host nanoseconds of every root span.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .zip(&self.parent)
            .filter(|(_, p)| p.is_none())
            .map(|(s, _)| s.host_ns())
            .sum()
    }

    /// Self time per layer: each span's host time minus the host time
    /// of its children, summed by layer (indexed like [`Layer::ALL`]).
    pub fn self_ns(&self) -> [u64; 3] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (s, p) in self.spans.iter().zip(&self.parent) {
            if let Some(p) = p {
                child_ns[*p] += s.host_ns();
            }
        }
        let mut out = [0u64; 3];
        for (i, s) in self.spans.iter().enumerate() {
            out[s.layer as usize] += s.host_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Spans of `layer` that have no parent although the layer is
    /// always called from an outer one. Zero in a well-formed trace.
    pub fn orphans(&self) -> usize {
        self.spans
            .iter()
            .zip(&self.parent)
            .filter(|(s, p)| s.layer != Layer::Driver && p.is_none())
            .count()
    }

    /// Calls and host nanoseconds of `layer` spans whose op is `op`.
    pub fn calls(&self, layer: Layer, op: Option<&str>) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && op.is_none_or(|o| s.op == o))
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.host_ns()))
    }

    /// Writes the spans as CSV, one per line.
    ///
    /// # Errors
    ///
    /// Any I/O error from `out`.
    pub fn write_csv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(
            out,
            "id,parent,layer,op,host_start_ns,host_end_ns,virt_start_ns,virt_end_ns"
        )?;
        for (i, (s, p)) in self.spans.iter().zip(&self.parent).enumerate() {
            let parent = p.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{i},{parent},{},{},{},{},{},{}",
                s.layer.name(),
                s.op,
                s.host_start,
                s.host_end,
                s.virt_start.as_nanos(),
                s.virt_end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, host_start: u64, host_end: u64) -> Span {
        Span {
            layer,
            op: "x",
            host_start,
            host_end,
            virt_start: SimTime::ZERO,
            virt_end: SimTime::ZERO,
        }
    }

    #[test]
    fn link_nests_by_containment_and_self_times_sum_to_roots() {
        let t = Trace::link(vec![
            span(Layer::Under, 12, 15),
            span(Layer::Driver, 0, 100),
            span(Layer::Cofs, 10, 20),
            span(Layer::Cofs, 30, 60),
            span(Layer::Under, 35, 40),
            span(Layer::Under, 45, 55),
        ]);
        assert_eq!(t.orphans(), 0);
        assert_eq!(t.self_ns(), [60, 22, 18]);
        assert_eq!(t.self_ns().iter().sum::<u64>(), t.root_ns());
    }

    #[test]
    fn a_span_outside_every_root_is_an_orphan() {
        let t = Trace::link(vec![span(Layer::Driver, 0, 10), span(Layer::Cofs, 20, 30)]);
        assert_eq!(t.orphans(), 1);
    }
}
