//! Host-speed calibration: a fixed kernel timed between scenarios, so the
//! end-to-end times can be reported in seconds of a quiet reference host.
//!
//! On a shared VM the benchmark's core slows by up to about 1.6× in
//! episodes of seconds to minutes.  Compute-only code on the same core
//! slows too, and a busy loop on the VM's other vCPU does not change it,
//! so the cause appears to be another tenant on the same physical core.
//! A run's mean wall time then depends on how much of it fell in such
//! episodes.  The kernel below is timed before every scenario and after
//! the last one, on the benchmark's own thread.  Its mean time over a run
//! measures how slow the host was during that run, and the code it times
//! never changes with the simulator.

use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations per sample: about 12 ms on the reference host.
const ITERATIONS: u32 = 500_000;
/// Words in the kernel's table: 1.5 MiB, resident in a quiet core's L2.
const TABLE_WORDS: usize = 384 * 1024;
/// About the time of one sample on the reference host (a 2-vCPU Xeon VM)
/// in its quiet stretches.  Benchmark figures are only ever compared with
/// each other, so this constant never needs re-measuring.
pub const REFERENCE_SECS: f64 = 0.012;

/// One step of the kernel: a few rounds of mixing, data-dependent
/// branches and table updates, different for every `K`.  The kernel calls
/// 128 instances in random order, so like the simulator it runs branchy
/// code spread over many functions.  Of the kernels tried (table updates
/// alone, independent xorshift streams, and this one), this one's times
/// followed the simulator's pass times most closely.  It still slows less
/// than the simulator does, so the scaling removes most, not all, of the
/// host's swings.
#[inline(never)]
fn step<const K: u64>(x: u64, table: &mut [u32]) -> u64 {
    let mut y = x ^ K.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for j in 0..K % 5 + 2 {
        y = y.rotate_left((K % 63) as u32 + 1).wrapping_add(j);
        if y & (1 << (K % 17)) != 0 {
            y ^= y >> 11;
        } else {
            y = y.wrapping_mul(K | 1);
        }
        let i = (y >> 40) as usize % table.len();
        table[i] = table[i].wrapping_add(y as u32);
    }
    y
}

type Step = fn(u64, &mut [u32]) -> u64;

macro_rules! steps {
    ($($k:literal)*) => { [$(step::<$k> as Step),*] };
}

static STEPS: [Step; 128] = steps!(
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
    32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63
    64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79 80 81 82 83 84 85 86 87 88 89 90 91 92 93 94 95
    96 97 98 99 100 101 102 103 104 105 106 107 108 109 110 111 112 113 114 115 116 117 118 119 120 121 122 123 124 125 126 127
);

/// The calibration kernel's state and its samples in one run.
pub struct Calibration {
    table: Vec<u32>,
    state: u64,
    samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration {
            table: (0..TABLE_WORDS as u32).collect(),
            state: 0x1234_5678,
            samples: Vec::new(),
        }
    }
}

impl Calibration {
    /// Time one sample.  The table is read once first, untimed, so the
    /// sample does not depend on what the scenario before it left in cache.
    pub fn sample(&mut self) {
        black_box(self.table.iter().fold(0u32, |a, &w| a ^ w));
        let start = Instant::now();
        let mut x = self.state;
        for _ in 0..ITERATIONS {
            x = STEPS[(x >> 57) as usize](x, &mut self.table).wrapping_add(x >> 3);
        }
        self.state = black_box(x);
        self.samples.push(start.elapsed().as_secs_f64());
    }

    /// The number of samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Forget the samples taken so far.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// How much faster than the reference host this run's host was:
    /// [`REFERENCE_SECS`] over the trimmed mean sample time.  Multiplying a
    /// wall time by it gives seconds of the reference host.
    pub fn speed(&self) -> f64 {
        self.speed_since(0)
    }

    /// The host speed shown by the samples from the `first`th on: the
    /// speed over a stretch of the run, where [`speed`](Self::speed)
    /// covers all of it.
    pub fn speed_since(&self, first: usize) -> f64 {
        REFERENCE_SECS / trimmed_mean(&self.samples[first..])
    }
}

/// The mean of the middle 80% of `values`.  The mean, not the median,
/// because contention makes pass times bimodal and the median of a run
/// then jumps between the two modes; the trim drops one-off stalls.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    let kept = &sorted[cut..sorted.len() - cut];
    if kept.is_empty() {
        return f64::NAN;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}
