//! A software cycle counter: how fast is the host running right now?
//!
//! The recording host's CPU speed moves between two levels about 25 %
//! apart and stays on one for tens of seconds (turbo state or a busy
//! sibling thread — a fixed arithmetic loop sees exactly the same two
//! levels as the OKWS workloads do). Raw host time therefore differs by a
//! quarter between two runs of the same binary a minute apart, which
//! would drown every bound this benchmark could declare. With no
//! hardware cycle counter in the sandbox, the harness times a fixed piece
//! of work of its own — nothing from the crates under test, so no change
//! to them can move it — at regular points inside every measured
//! interval, and the orchestrator scales that interval's host time to
//! what it would have been with the reference work running at
//! [`NOMINAL_NS`]. Raw host-time values are printed and recorded beside
//! the scaled ones.

use std::hint::black_box;
use std::time::Instant;

/// What one [`sample`] takes at the reference speed: the slower (and more
/// common) of the recording host's two levels. Frozen; it only fixes the
/// unit, since parent and change are always scaled by the same constant.
pub const NOMINAL_NS: f64 = 150_000.0;

const STEPS: u32 = 100_000;

/// The fixed work: a dependent multiply-add chain feeding scattered
/// read-modify-writes over a 16 KiB table — integer latency, some
/// instruction-level parallelism, L1 traffic, no memory-system share.
pub fn work() -> u64 {
    let mut table = [0u32; 4096];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for step in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 52) as usize;
        table[i] = table[i].wrapping_add(x as u32) ^ step;
        acc = acc.wrapping_add(u64::from(table[(i * 7 + 1) & 4095]));
    }
    acc
}

/// Times one run of the fixed work, in host nanoseconds. An untimed run
/// goes first: after a round the thread may have moved cores and its
/// caches and branch predictors hold the deployment's state, not ours.
pub fn sample() -> f64 {
    black_box(work());
    let start = Instant::now();
    black_box(work());
    start.elapsed().as_nanos() as f64
}

/// Host speed relative to the reference: above 1 the host is running
/// faster than nominal and raw times read too short.
pub fn speed(mean_sample_ns: f64) -> f64 {
    NOMINAL_NS / mean_sample_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed() {
        assert_eq!(work(), work());
        assert!(sample() > 0.0);
        assert_eq!(speed(NOMINAL_NS), 1.0);
        assert!(speed(NOMINAL_NS / 1.25) > 1.2);
    }
}
