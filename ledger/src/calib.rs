//! Host-speed calibration.
//!
//! The reference sandbox drifts: the same register-only loop takes 5 to
//! 15 % longer in some ten-second stretches than in others (frequency,
//! hypervisor steal), and whole runs shift with it. A short fixed spin on
//! `T` threads at once, timed next to every sample, follows the drift;
//! scaling the sample by it cancels the part of the noise that is the
//! host's and keeps the part that is the program's. A reported time is
//! therefore a time *at nominal host speed*: the speed at which one
//! iteration of the spin takes one nanosecond, which is about what the
//! reference host does when nothing disturbs it. The spin is the
//! benchmark's own code and touches no memory, so no change to the program
//! moves it.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

const SPIN_ITERATIONS: u64 = 500_000;
const NOMINAL_NS_PER_ITERATION: f64 = 1.0;
/// Spins the running median looks back over: enough to ignore one spin that
/// was preempted, short enough to follow the drift.
const WINDOW: usize = 5;

/// Time `iterations` steps of a register-only xorshift.
pub fn spin(iterations: u64) -> Duration {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..iterations {
        x = black_box(x ^ (x << 13) ^ (x >> 7));
    }
    black_box(x);
    start.elapsed()
}

fn spin_ns() -> f64 {
    spin(SPIN_ITERATIONS).as_nanos() as f64
}

pub struct HostSpeed {
    threads: usize,
    recent: VecDeque<f64>,
}

impl HostSpeed {
    /// `threads` is the workloads' `T`: what they run on is what is timed.
    pub fn new(threads: usize) -> Self {
        let mut speed = HostSpeed {
            threads,
            recent: VecDeque::new(),
        };
        speed.recent = (0..WINDOW).map(|_| speed.spin()).collect();
        speed
    }

    /// Mean time of the spin on `threads` threads side by side; each times
    /// itself, so starting and joining them is not in it.
    fn spin(&self) -> f64 {
        std::thread::scope(|scope| {
            let others: Vec<_> = (1..self.threads).map(|_| scope.spawn(spin_ns)).collect();
            let mine = spin_ns();
            let sum: f64 = others
                .into_iter()
                .map(|o| o.join().expect("a spinner"))
                .sum();
            (mine + sum) / self.threads as f64
        })
    }

    /// Spin once more; the factor by which to multiply a duration measured
    /// now to get it at nominal host speed.
    pub fn factor(&mut self) -> f64 {
        self.recent.pop_front();
        self.recent.push_back(self.spin());
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        NOMINAL_NS_PER_ITERATION * SPIN_ITERATIONS as f64 / median(&recent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_finite() {
        let mut speed = HostSpeed::new(2);
        let f = speed.factor();
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(speed.recent.len(), WINDOW);
    }
}
