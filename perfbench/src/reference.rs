//! The reference memory pass each timed operation is measured against.
//!
//! The benchmark runs on shared hosts whose memory system other tenants
//! load in episodes of seconds: a streaming read then takes up to twice
//! as long, and a cold solve about 1.6× as long, while integer-only code
//! keeps its speed. Raw seconds therefore measure the neighbours as much
//! as the program. The reference pass is a fixed streaming read over a
//! buffer of this package's own, timed right before and right after each
//! timed operation. The end-to-end time metric is the operation's on-CPU
//! time over the mean of the two passes. Contention slows the cold solves
//! about as much as the pass, so their ratio holds still while their
//! seconds swing; it slows the serve windows about half as much, so their
//! ratio moves about as much as their seconds, the other way. Both are
//! on-CPU times, so time the hypervisor steals from the VM is left out of
//! both.

use crate::sys::thread_cpu_seconds;

/// Buffer length: 32 MiB of `u64`, larger than any core's private cache.
const WORDS: usize = 4 << 20;

/// Passes over the buffer per timing.
const PASSES: usize = 4;

/// The reference buffer.
pub(crate) struct RefPass {
    buf: Vec<u64>,
}

impl RefPass {
    /// Allocates and fills the buffer, then runs one untimed pass.
    pub(crate) fn new() -> Self {
        let r = RefPass {
            buf: (0..WORDS as u64).map(|i| crate::mix(i, 9)).collect(),
        };
        r.time();
        r
    }

    /// On-CPU seconds of the calling thread for `PASSES` streaming reads
    /// of the buffer, one word from each end and the middle of every
    /// 64-byte line.
    pub(crate) fn time(&self) -> f64 {
        let t = thread_cpu_seconds();
        let mut acc = 0u64;
        for _ in 0..PASSES {
            for line in self.buf.chunks_exact(8) {
                acc = acc.wrapping_add(line[0] ^ line[3] ^ line[7]);
            }
        }
        std::hint::black_box(acc);
        thread_cpu_seconds() - t
    }
}

/// `cpu_s` in reference units: over the mean of the passes timed before
/// and after it.
pub(crate) fn in_ref_units(cpu_s: f64, before: f64, after: f64) -> f64 {
    2.0 * cpu_s / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_takes_time_and_a_ratio_is_per_mean_pass() {
        let r = RefPass::new();
        assert!(r.time() > 0.0);
        assert_eq!(in_ref_units(3.0, 1.0, 2.0), 2.0);
    }
}
