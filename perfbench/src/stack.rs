//! The stacks a workload runs on, with and without timing probes.
//!
//! A bare stack is a `CofsFs<U>`; a probed one is [`Probed<U>`], the
//! same stack with a [`Probe`] at each of the two `FileSystem`
//! boundaries. A metered stack only ticks at the outer boundary; a
//! traced one records spans at both. The probes forward every call
//! unchanged, so all three run the same model and must report
//! identical virtual time.

use crate::clock::HostClock;
use crate::probe::{Layer, Probe, Record, Span};
use cofs::config::{CofsConfig, MdsNetwork};
use cofs::fs::CofsFs;
use pfs::fs::PfsFs;
use simcore::time::SimTime;
use vfs::fs::FileSystem;
use vfs::memfs::MemFs;
use workloads::target::BenchTarget;

/// The placement seed of every stack: the stack and its seed stay
/// fixed, only the workload seed varies the client scripts.
pub const STACK_SEED: u64 = 0xC0F5;

/// A filesystem COFS can sit on in the benchmark.
pub trait UnderFs: BenchTarget {
    /// The GPFS model, when this is (or wraps) one.
    fn pfs(&self) -> Option<&PfsFs>;
}

impl UnderFs for MemFs {
    fn pfs(&self) -> Option<&PfsFs> {
        None
    }
}

impl UnderFs for PfsFs {
    fn pfs(&self) -> Option<&PfsFs> {
        Some(self)
    }
}

impl<U: UnderFs> BenchTarget for Probe<U> {
    fn phase_reset(&mut self) {
        self.inner_mut().phase_reset();
    }
}

impl<U: UnderFs> UnderFs for Probe<U> {
    fn pfs(&self) -> Option<&PfsFs> {
        self.inner().pfs()
    }
}

/// A COFS stack the driver runs scripts against.
pub trait Stack: FileSystem {
    /// The filesystem under COFS as this stack sees it.
    type Under: UnderFs;

    /// The COFS layer.
    fn cofs(&self) -> &CofsFs<Self::Under>;

    /// The COFS layer, mutably.
    fn cofs_mut(&mut self) -> &mut CofsFs<Self::Under>;

    /// Flushes buffered batches at the end of a phase and returns when
    /// the tail completed ([`CofsFs::drain_batches`]).
    fn drain(&mut self) -> Option<SimTime> {
        self.cofs_mut().drain_batches()
    }

    /// Takes the spans the probes recorded (none unless traced).
    fn take_spans(&mut self) -> Vec<Span> {
        Vec::new()
    }

    /// Takes the ticks the outer probe recorded (none unless metered).
    fn take_ticks(&mut self) -> Vec<u64> {
        Vec::new()
    }
}

impl<U: UnderFs> Stack for CofsFs<U> {
    type Under = U;

    fn cofs(&self) -> &CofsFs<U> {
        self
    }

    fn cofs_mut(&mut self) -> &mut CofsFs<U> {
        self
    }
}

/// A COFS stack with probes at the driver→`CofsFs` and
/// `CofsFs`→underlying boundaries.
pub type Probed<U> = Probe<CofsFs<Probe<U>>>;

/// Driver→`CofsFs` calls per tick of a metered stack: a slice of a few
/// milliseconds of host time on every workload.
pub const TICK_CALLS: u64 = 2048;

/// Builds a bare stack.
pub fn bare<U: UnderFs>(under: U, cfg: CofsConfig, net: MdsNetwork) -> CofsFs<U> {
    CofsFs::new(under, cfg, net, STACK_SEED)
}

/// Builds the stack with a probe at each boundary, the outer one
/// recording `outer` and the inner one `inner`.
fn probed<U: UnderFs>(
    under: U,
    cfg: CofsConfig,
    net: MdsNetwork,
    clock: HostClock,
    (outer, inner): (Record, Record),
) -> Probed<U> {
    let under = Probe::new(under, Layer::Under, clock, inner);
    Probe::new(bare(under, cfg, net), Layer::Cofs, clock, outer)
}

/// Builds the stack the end-to-end metrics are measured on: the outer
/// probe ticks every [`TICK_CALLS`] calls, the inner one is off.
pub fn metered<U: UnderFs>(
    under: U,
    cfg: CofsConfig,
    net: MdsNetwork,
    clock: HostClock,
) -> Probed<U> {
    let modes = (Record::Ticks(TICK_CALLS), Record::Off);
    probed(under, cfg, net, clock, modes)
}

/// Builds the stack the per-layer metrics are measured on: both probes
/// record spans.
pub fn traced<U: UnderFs>(
    under: U,
    cfg: CofsConfig,
    net: MdsNetwork,
    clock: HostClock,
) -> Probed<U> {
    probed(under, cfg, net, clock, (Record::Spans, Record::Spans))
}

impl<U: UnderFs> Stack for Probed<U> {
    type Under = Probe<U>;

    fn cofs(&self) -> &CofsFs<Probe<U>> {
        self.inner()
    }

    fn cofs_mut(&mut self) -> &mut CofsFs<Probe<U>> {
        self.inner_mut()
    }

    fn drain(&mut self) -> Option<SimTime> {
        // The drain is COFS work done outside any driver call; it gets a
        // span of its own so its host time is attributed to COFS.
        self.timed("drain", SimTime::ZERO, |fs| {
            let tail = fs.drain_batches();
            (tail, tail.unwrap_or(SimTime::ZERO))
        })
    }

    fn take_spans(&mut self) -> Vec<Span> {
        let mut spans = Probe::take_spans(self);
        spans.extend(self.inner_mut().under_mut().take_spans());
        spans
    }

    fn take_ticks(&mut self) -> Vec<u64> {
        Probe::take_ticks(self)
    }
}
