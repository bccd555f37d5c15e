//! A fixed reference kernel, timed beside every op, that the end-to-end
//! timings are scaled by.
//!
//! The benchmark runs on shared machines whose speed moves by 20–50 % for
//! seconds to minutes at a time as neighbours come and go (measured on the
//! two-vCPU box this ledger was defined on: a cache-resident arithmetic loop
//! takes 15.3 ms in the machine's fast state and anything up to 20 ms in the
//! next minute). A run that lands in a slow phase reads a regression that is
//! not there, and no statistic of its own samples can tell it apart.
//!
//! So each op is bracketed by a sample of this kernel — a few milliseconds of
//! work of the kinds the program does: integer arithmetic over a
//! cache-resident array, a dependent pointer chase over 8 MB, and small-string
//! allocation, formatting and splitting — and the op's host time is scaled by
//! `REFERENCE_MS / (mean of the two samples)`. What is reported is host time
//! *at the reference speed*: the same run reads the same in a fast and in a
//! slow phase, as far as the kernel slows down the way the op does. It is a
//! ratio of two times measured alongside each other, so a change to the
//! program moves it exactly as it moves raw host time.

use std::fmt::Write;
use std::time::Instant;

/// What one sample takes in the fast state of the machine the ledger was
/// defined on. On another machine every scaled timing shifts by one constant
/// factor, which cancels between two commits measured there.
pub const REFERENCE_MS: f64 = 3.1;

pub struct Reference {
    small: Vec<u64>,
    /// One random cycle through all its slots.
    chase: Vec<u32>,
    at: usize,
}

impl Reference {
    pub fn new() -> Self {
        const SLOTS: usize = 1 << 21; // 8 MB: past the 4 MB L2
        let mut chase: Vec<u32> = (0..SLOTS as u32).collect();
        // Sattolo's shuffle over a fixed xorshift stream: a single cycle.
        let mut x = 88_172_645_463_325_252u64;
        for i in (1..SLOTS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chase.swap(i, (x as usize) % i);
        }
        Reference {
            small: (0..1 << 13).collect(),
            chase,
            at: 0,
        }
    }

    /// Run the kernel once; host milliseconds it took.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for round in 0..200u64 {
            for v in self.small.iter_mut() {
                *v = v
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(round);
                acc ^= *v;
            }
        }
        for _ in 0..10_000 {
            self.at = self.chase[self.at] as usize;
        }
        let mut total = 0usize;
        for i in 0..3_000u64 {
            let mut record = String::new();
            write!(
                record,
                "{{\"id\":{i},\"score\":{:.6},\"name\":\"rec-{}\"}}",
                i as f64 * 0.37,
                i * 7
            )
            .expect("writing to a String cannot fail");
            let fields: Vec<&str> = record.split(',').collect();
            total += fields.len() + record.len();
        }
        std::hint::black_box((acc, self.at, total));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// The factor that brings a host time measured between two samples to the
/// reference speed.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_and_samples_are_positive() {
        let mut reference = Reference::new();
        let mut at = 0usize;
        let mut steps = 0usize;
        loop {
            at = reference.chase[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, reference.chase.len());
        assert!(reference.sample() > 0.0);
    }

    #[test]
    fn a_slow_phase_scales_times_down_to_the_reference() {
        assert_eq!(factor(REFERENCE_MS, REFERENCE_MS), 1.0);
        // Samples a third slower: a time measured between them counts for
        // three quarters of itself.
        let slow = REFERENCE_MS * 4.0 / 3.0;
        assert!((factor(slow, slow) - 0.75).abs() < 1e-12);
        assert!((factor(REFERENCE_MS, slow) - 6.0 / 7.0).abs() < 1e-12);
    }
}
