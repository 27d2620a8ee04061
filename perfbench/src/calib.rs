//! Host-speed calibration for the end-to-end host times.
//!
//! On a shared virtual machine the host's memory system slows for seconds to
//! minutes at a time while other tenants run. Memory-bound code slows with
//! it, `churn` by up to nearly twice; a pure arithmetic loop does not
//! notice. [`host_s`] times a fixed memory-bound kernel that belongs to the
//! benchmark, not to the program: sorting a vector and grouping it in a hash
//! map, about a megabyte of data. The benchmark times it right before each
//! measured run and rescales the memory-bound share of the median wall and
//! set-up times (`Workload::memory_share`) to a host on which the kernel's
//! median time is [`REFERENCE_S`], so that a program change moves the
//! figures and a neighbour's load mostly does not.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The kernel's time on the reference host: about what an uncontended
/// 2-vCPU virtual machine takes.
pub const REFERENCE_S: f64 = 0.005;

/// Kernel runs per calibration; the median is kept, so a preempted run
/// does not skew it.
const REPEATS: usize = 5;

/// Elements the kernel sorts and groups (480 KiB of `u64`).
const ELEMS: u64 = 60_000;

/// Groups the kernel's hash map holds.
const GROUPS: u64 = 4096;

/// The kernel's host time now, in seconds: the median of [`REPEATS`] runs.
pub fn host_s() -> f64 {
    let mut times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            // audit: allow(wall-clock)
            let start = Instant::now();
            std::hint::black_box(kernel());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPEATS / 2]
}

/// Sorts [`ELEMS`] pseudo-random words, groups their positions by value
/// into [`GROUPS`] vectors, and folds the groups into a checksum.
fn kernel() -> u64 {
    let mut words: Vec<u64> = (0..ELEMS).map(mix).collect();
    words.sort_unstable();
    // A fixed hasher, so every run does the same work.
    let mut groups: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, w) in words.iter().enumerate() {
        groups.entry(w % GROUPS).or_default().push(i as u64);
    }
    groups
        .iter()
        .map(|(k, v)| k ^ v.iter().copied().fold(0, u64::wrapping_add))
        .fold(0, u64::wrapping_add)
}

/// SplitMix64's output function.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
