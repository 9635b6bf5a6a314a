//! Host speed. On a shared host the same op runs up to 1.3–1.9× slower
//! in phases that outlast a run, so raw wall times of one program differ
//! more from run to run than any bound could allow. A fixed reference
//! kernel, which no change to the program can touch, is timed before the
//! first op and after every op; each op's wall time is scaled by
//! `NOMINAL_S` ÷ the mean of the kernel times on either side of it. The
//! scaled time is the op's time at the host speed at which the kernel
//! takes `NOMINAL_S`: close to its wall time on a quiet host, and steady
//! when the host is not.
//!
//! The kernel runs on the thread that runs the ops: a kernel in a process
//! of its own, scheduled on whichever core was free, followed the
//! single-threaded `simulate` op less closely. Its buffers are allocated
//! once and stay resident, so their size is measured and left out of
//! `peak_rss_mb`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

use crate::report::status_mib;

/// The kernel's time on the 2-core host the bounds were set on, in a
/// quiet phase; in slow phases it took up to ≈0.08 s.
pub const NOMINAL_S: f64 = 0.040;

/// Slots of the random-access table: 4 MiB, past the L2 cache.
const SLOTS: usize = 1 << 20;
const TABLE_STEPS: usize = 4 << 20;
/// Keys counted and sorted per pass.
const KEYS: usize = 400_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The reference kernel: random read-modify-writes over a table that
/// outgrows the L2 cache, then pseudo-random keys counted in a hash map
/// and sorted. That is the mix of scattered memory access, hashing and
/// branchy compares the ops do; probes that did only arithmetic tracked
/// the memory-bound `simulate` op worse. Its buffers are sized up front,
/// so a pass does the same work every time and never waits on the
/// allocator or page faults.
#[derive(Debug)]
struct Kernel {
    table: Vec<u32>,
    counts: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>,
    keys: Vec<u64>,
}

impl Kernel {
    fn run(&mut self) -> u64 {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..TABLE_STEPS {
            x = xorshift(x);
            let slot = (x % SLOTS as u64) as usize;
            self.table[slot] = self.table[slot].wrapping_add(x as u32);
        }
        self.counts.clear();
        self.keys.clear();
        for _ in 0..KEYS {
            x = xorshift(x);
            *self.counts.entry(x % (KEYS as u64 / 2)).or_insert(0) += 1;
            self.keys.push(x);
        }
        self.keys.sort_unstable();
        u64::from(self.table[0]) ^ self.counts.len() as u64 ^ self.keys[KEYS / 2]
    }

    fn probe_s(&mut self) -> f64 {
        let started = Instant::now();
        std::hint::black_box(self.run());
        started.elapsed().as_secs_f64()
    }
}

/// Probes the host between ops and scales the ops' times.
#[derive(Debug)]
pub struct HostClock {
    kernel: Kernel,
    last_s: f64,
    /// The factor each op was scaled by.
    pub factors: Vec<f64>,
    /// The kernel's resident buffers, in MiB.
    pub resident_mib: f64,
}

impl HostClock {
    /// Builds the kernel, touches all its buffers, and probes once.
    pub fn new() -> HostClock {
        let before = status_mib("VmRSS");
        let mut kernel = Kernel {
            table: vec![1; SLOTS],
            counts: HashMap::with_capacity_and_hasher(KEYS / 2, Default::default()),
            keys: Vec::with_capacity(KEYS),
        };
        kernel.run();
        let resident_mib = status_mib("VmRSS") - before;
        let last_s = kernel.probe_s();
        HostClock {
            kernel,
            last_s,
            factors: Vec::new(),
            resident_mib,
        }
    }

    /// Probes again and returns the factor for the work done since the
    /// previous probe: `NOMINAL_S` ÷ the mean of the two kernel times.
    pub fn factor(&mut self) -> f64 {
        let now_s = self.kernel.probe_s();
        let factor = 2.0 * NOMINAL_S / (self.last_s + now_s);
        self.last_s = now_s;
        self.factors.push(factor);
        factor
    }
}
