//! The benchmark's host clock.
//!
//! This is the only place the benchmark reads wall-clock time. The
//! readings measure the simulator's own cost and never flow into the
//! simulation, whose virtual time stays a pure function of its inputs.

/// Nanoseconds of host time since the clock was started.
#[derive(Debug, Clone, Copy)]
pub struct HostClock {
    // cofs-lint: allow(D001, host-time measurement of the simulator; never feeds virtual time)
    base: std::time::Instant,
}

impl HostClock {
    /// Starts a clock at zero.
    pub fn start() -> Self {
        HostClock {
            // cofs-lint: allow(D001, host-time measurement of the simulator; never feeds virtual time)
            base: std::time::Instant::now(),
        }
    }

    /// Host nanoseconds elapsed since [`HostClock::start`].
    pub fn ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The fixed amount of work [`calibration_ns`] times: ordered-map
/// inserts and range lookups, the access pattern of the simulator's
/// own tables, on a map small enough to stay in cache.
const CALIBRATION_KEYS: u64 = 4096;
const CALIBRATION_LOOKUPS: u64 = 20_000;

/// Host nanoseconds one run of a fixed calibration kernel takes now.
/// The kernel never changes, so its time tracks how fast the host is
/// running, whatever the code under test does.
pub fn calibration_ns(clock: &HostClock) -> u64 {
    let start = clock.ns();
    let mut x: u64 = 1;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 20
    };
    let mut map = std::collections::BTreeMap::new();
    for i in 0..CALIBRATION_KEYS {
        map.insert(next(), i);
    }
    let mut sum = 0u64;
    for _ in 0..CALIBRATION_LOOKUPS {
        if let Some((k, v)) = map.range(next()..).next() {
            sum = sum.wrapping_add(k ^ v);
        }
    }
    std::hint::black_box(sum);
    clock.ns() - start
}
