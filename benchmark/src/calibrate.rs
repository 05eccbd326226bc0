//! The host's speed, measured by a fixed reference computation.
//!
//! A shared host's cores run faster or slower from one second to the
//! next: on a 2-core host this computation's CPU time switched between
//! about 9 and about 17 ms within a run, and the scans' CPU time moved
//! with it. The reference is written here, in the benchmark, so no change
//! to the scanner changes it. The run times it every [`INTERVAL`] of CPU
//! time and states every operation's CPU time at the speed at which the
//! reference takes [`NOMINAL_MS`], using the two samples around it.

use crate::cpu;
use crate::stats::median;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Duration;

/// Nodes of the reference graph (about 2 MiB with its edge lists).
const NODES: usize = 1 << 15;

/// CPU milliseconds of one [`work`] at nominal speed; about this host's
/// fast state.
pub const NOMINAL_MS: f64 = 5.0;

/// CPU time between two samples of the host's speed.
const INTERVAL: Duration = Duration::from_millis(150);

/// xorshift64*, a fixed pseudo-random sequence.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The reference computation: builds a random graph of small vectors,
/// walks it breadth-first, counts its out-degrees in a hash map and sorts
/// the visit order — allocation, pointer chasing, hashing and branching,
/// as in a scan. Returns a checksum so nothing is optimized away.
pub fn work() -> u64 {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let graph: Vec<Vec<u32>> = (0..NODES)
        .map(|_| {
            let degree = (next(&mut s) % 5) as usize;
            (0..degree)
                .map(|_| (next(&mut s) % NODES as u64) as u32)
                .collect()
        })
        .collect();
    let mut seen = vec![false; NODES];
    let mut order = Vec::with_capacity(NODES);
    let mut queue = VecDeque::new();
    for root in 0..NODES {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        queue.push_back(root as u32);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in &graph[v as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    let mut degrees: HashMap<u32, u32> = HashMap::new();
    for (v, edges) in graph.iter().enumerate() {
        *degrees.entry(edges.len() as u32).or_default() += 1;
        if edges.len() > 3 {
            *degrees.entry(v as u32 | 1 << 31).or_default() += 1;
        }
    }
    order.sort_unstable_by_key(|&v| (graph[v as usize].len(), v.wrapping_mul(2_654_435_761)));
    black_box(order[NODES / 2] as u64 ^ degrees.len() as u64)
}

/// Samples of the host's speed over a run.
#[derive(Default)]
pub struct Calibration {
    /// CPU milliseconds of each run of [`work`], in order.
    samples: Vec<f64>,
    /// Process CPU time at the end of the last sample.
    last: Duration,
}

impl Calibration {
    /// Times one run of [`work`]; returns the sample's index.
    pub fn sample(&mut self) -> usize {
        let before = cpu::process();
        work();
        self.last = cpu::process();
        self.samples.push((self.last - before).as_secs_f64() * 1e3);
        self.samples.len() - 1
    }

    /// Samples again when [`INTERVAL`] of CPU time has passed since the
    /// last sample; returns the index of the latest sample.
    pub fn tick(&mut self) -> usize {
        if self.samples.is_empty() || cpu::process() - self.last >= INTERVAL {
            self.sample()
        } else {
            self.samples.len() - 1
        }
    }

    /// The factor that states CPU time measured after sample `i` (and
    /// before the next) at nominal speed: the reference's nominal time over
    /// the mean of the samples on either side.
    pub fn factor(&self, i: usize) -> f64 {
        let before = self.samples[i];
        let after = self.samples.get(i + 1).copied().unwrap_or(before);
        NOMINAL_MS / ((before + after) / 2.0)
    }

    /// Median CPU milliseconds of a sample, and the sample count.
    pub fn summary(&self) -> (f64, usize) {
        (median(&self.samples), self.samples.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_fixed_work() {
        assert_eq!(work(), work());
    }

    #[test]
    fn factor_averages_the_samples_around() {
        let cal = Calibration {
            samples: vec![10.0, 5.0, 2.5],
            last: Duration::ZERO,
        };
        assert_eq!(cal.factor(0), NOMINAL_MS / 7.5);
        assert_eq!(cal.factor(1), NOMINAL_MS / 3.75);
        assert_eq!(cal.factor(2), NOMINAL_MS / 2.5);
        assert_eq!(cal.summary(), (5.0, 3));
    }
}
