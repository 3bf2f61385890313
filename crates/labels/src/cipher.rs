//! A 61-bit block cipher for handle generation.
//!
//! §5.1: "The kernel generates handles by encrypting a counter with a 61-bit
//! block cipher (derived from Blowfish), resulting in an unpredictable but
//! non-repeating sequence of values; the unpredictability closes certain
//! covert channels by concealing the number of handles that have been created
//! at any given time."
//!
//! We reproduce the construction with a Blowfish-style Feistel network:
//! sixteen rounds over a 62-bit block (two 31-bit halves) whose round
//! function combines four key-scheduled 256-entry S-boxes exactly like
//! Blowfish's `F`, restricted to the 61-bit handle domain by cycle walking.
//! Cycle walking re-encrypts any output that falls outside `[0, 2^61)`;
//! because the 62-bit Feistel is a permutation, the restriction is a
//! permutation of the 61-bit domain, so the generated handle sequence never
//! repeats.

use crate::handle::{Handle, HANDLE_SPACE};

/// Number of Feistel rounds. Blowfish uses 16.
const ROUNDS: usize = 16;

/// Bits per Feistel half; two halves form the 62-bit walking domain.
const HALF_BITS: u32 = 31;

/// Mask selecting one 31-bit half.
const HALF_MASK: u64 = (1 << HALF_BITS) - 1;

/// SplitMix64 step, used only for key scheduling (deterministic, seedable).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A Blowfish-style cipher on the 61-bit handle domain.
///
/// The cipher is deterministic for a given seed, which keeps the kernel
/// simulator reproducible while still concealing the underlying counter from
/// user code (the covert-channel concern of §8).
#[derive(Clone)]
pub struct HandleCipher {
    /// Four key-scheduled S-boxes, as in Blowfish.
    sbox: [[u32; 256]; 4],
    /// Per-round subkeys (Blowfish's P-array, extended to 16 rounds).
    subkeys: [u32; ROUNDS],
}

impl HandleCipher {
    /// Builds a cipher with S-boxes and subkeys derived from `seed`.
    pub fn new(seed: u64) -> HandleCipher {
        let mut state = seed ^ 0xa5b3_5705_87f6_c1e3;
        let mut sbox = [[0u32; 256]; 4];
        for s in sbox.iter_mut() {
            for slot in s.iter_mut() {
                *slot = splitmix64(&mut state) as u32;
            }
        }
        let mut subkeys = [0u32; ROUNDS];
        for k in subkeys.iter_mut() {
            *k = splitmix64(&mut state) as u32;
        }
        HandleCipher { sbox, subkeys }
    }

    /// Blowfish's round function `F`, truncated to 31 bits.
    ///
    /// `F(x) = ((S0[a] + S1[b]) ^ S2[c]) + S3[d]` where `a..d` are the bytes
    /// of the 32-bit input.
    #[inline]
    fn f(&self, x: u32) -> u64 {
        let a = (x >> 24) as usize;
        let b = (x >> 16 & 0xff) as usize;
        let c = (x >> 8 & 0xff) as usize;
        let d = (x & 0xff) as usize;
        let v = self.sbox[0][a]
            .wrapping_add(self.sbox[1][b])
            .wrapping_mul(0x9e37_79b9) // extra diffusion; harmless to the permutation property
            ^ self.sbox[2][c].wrapping_add(self.sbox[3][d]);
        u64::from(v) & HALF_MASK
    }

    /// One encryption pass over the 62-bit walking domain.
    fn encrypt62(&self, block: u64) -> u64 {
        debug_assert!(block < (1 << (2 * HALF_BITS)));
        let mut left = block >> HALF_BITS;
        let mut right = block & HALF_MASK;
        for round in 0..ROUNDS {
            let fk = self.f((right as u32) ^ self.subkeys[round]);
            let new_right = left ^ fk;
            left = right;
            right = new_right;
        }
        (left << HALF_BITS) | right
    }

    /// One decryption pass over the 62-bit walking domain.
    fn decrypt62(&self, block: u64) -> u64 {
        debug_assert!(block < (1 << (2 * HALF_BITS)));
        let mut left = block >> HALF_BITS;
        let mut right = block & HALF_MASK;
        for round in (0..ROUNDS).rev() {
            let fk = self.f((left as u32) ^ self.subkeys[round]);
            let new_left = right ^ fk;
            right = left;
            left = new_left;
        }
        (left << HALF_BITS) | right
    }

    /// Encrypts a 61-bit value to a 61-bit value (cycle walking).
    pub fn encrypt(&self, value: u64) -> u64 {
        assert!(value < HANDLE_SPACE, "cipher input exceeds 61 bits");
        let mut v = self.encrypt62(value);
        while v >= HANDLE_SPACE {
            v = self.encrypt62(v);
        }
        v
    }

    /// Decrypts a 61-bit value to a 61-bit value (cycle walking).
    pub fn decrypt(&self, value: u64) -> u64 {
        assert!(value < HANDLE_SPACE, "cipher input exceeds 61 bits");
        let mut v = self.decrypt62(value);
        while v >= HANDLE_SPACE {
            v = self.decrypt62(v);
        }
        v
    }
}

impl std::fmt::Debug for HandleCipher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandleCipher").finish_non_exhaustive()
    }
}

/// Allocates handles by encrypting an incrementing 61-bit counter (§5.1).
///
/// The counter space is partitioned into lanes: lane `l` of `lanes` draws
/// counters `1 + l, 1 + l + lanes, …`. One allocator owns a run of
/// consecutive lanes — a kernel's, one per shard — under one cipher, so
/// every lane mints in one namespace (§5.1), no two lanes ever mint the
/// same handle, and [`HandleAllocator::lane_of`] reads back which lane
/// minted a handle.
///
/// The counter itself would be a storage channel — it reveals how many
/// handles the whole system has created — so only its encryption is ever
/// visible to user code (§8).
#[derive(Debug, Clone)]
pub struct HandleAllocator {
    /// The cipher, boxed: 4 KiB of S-boxes kept off its owner's footprint.
    cipher: Box<HandleCipher>,
    /// The next counter each lane of the run draws, lane `first + i` at `i`.
    next: Box<[u64]>,
    /// Lanes in the whole partition.
    lanes: u64,
}

impl HandleAllocator {
    /// Creates an allocator owning the one lane of an unpartitioned
    /// counter, keyed from `seed`.
    pub fn new(seed: u64) -> HandleAllocator {
        HandleAllocator::with_partition(seed, 0, 1, 1)
    }

    /// Creates an allocator owning lanes `first .. first + run` of a
    /// `lanes`-way partition keyed from `seed`. Allocators keyed alike
    /// over disjoint runs never mint colliding handles, and lane `l`'s
    /// handles are the same whichever run holds it.
    ///
    /// # Panics
    ///
    /// Panics unless `run >= 1` and `first + run <= lanes`.
    pub fn with_partition(seed: u64, first: u64, run: usize, lanes: u64) -> HandleAllocator {
        assert!(
            run >= 1 && first + run as u64 <= lanes,
            "allocator lanes out of range"
        );
        HandleAllocator {
            cipher: Box::new(HandleCipher::new(seed)),
            next: (first..first + run as u64).map(|lane| 1 + lane).collect(),
            lanes,
        }
    }

    /// Which lane of the partition mints `handle`. Every value maps to a
    /// lane, minted or not (counter 0, which no lane draws, maps to lane
    /// `lanes - 1`). With one lane there is nothing to decrypt.
    pub fn lane_of(&self, handle: Handle) -> u64 {
        if self.lanes == 1 {
            return 0;
        }
        (self.cipher.decrypt(handle.raw()) + self.lanes - 1) % self.lanes
    }

    /// The first lane of the run (lane `l`'s counters are `1 + l` modulo
    /// the lane count).
    pub fn first(&self) -> u64 {
        (self.next[0] - 1) % self.lanes
    }

    /// How many lanes the counter space is partitioned into.
    pub fn lanes(&self) -> u64 {
        self.lanes
    }

    /// Returns a fresh, never-before-returned handle from lane
    /// `first + i`.
    ///
    /// # Panics
    ///
    /// Panics unless `i` is in the run, or if the lane's counters are
    /// exhausted (at one billion handles per second the whole `2^61` space
    /// would last 73 years; in a simulator it means a runaway loop).
    pub fn alloc(&mut self, i: usize) -> Handle {
        let counter = &mut self.next[i];
        assert!(*counter < HANDLE_SPACE, "61-bit handle space exhausted");
        let value = self.cipher.encrypt(*counter);
        *counter += self.lanes;
        Handle::new(value).expect("cycle-walked output stays in the 61-bit domain")
    }

    /// The number of handles allocated so far, by every lane of the run.
    ///
    /// This is god-mode observability for tests and accounting; it is never
    /// exposed through the syscall surface (it would be the §8 storage
    /// channel the cipher exists to close).
    pub fn allocated(&self) -> u64 {
        (self.next.iter().zip(self.first()..))
            .map(|(&next, lane)| (next - 1 - lane) / self.lanes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn partitioned_lanes_never_collide_and_lane0_matches_new() {
        // Lane 0 of a 1-way partition IS the classic allocator.
        let mut classic = HandleAllocator::new(9);
        let mut lane0of1 = HandleAllocator::with_partition(9, 0, 1, 1);
        for _ in 0..32 {
            assert_eq!(classic.alloc(0), lane0of1.alloc(0));
        }
        // Four lanes from one seed, two runs of two: all handles distinct,
        // and a lane mints the same handles whichever run holds it.
        let mut runs = [0, 2].map(|first| HandleAllocator::with_partition(9, first, 2, 4));
        let mut seen = HashSet::new();
        for run in &mut runs {
            for i in [0, 1] {
                let mut alone = HandleAllocator::with_partition(9, run.first() + i, 1, 4);
                for _ in 0..64 {
                    let h = run.alloc(i as usize);
                    assert_eq!(h, alone.alloc(0));
                    assert!(seen.insert(h), "lanes minted a duplicate");
                }
            }
            assert_eq!(run.allocated(), 128);
        }
    }

    #[test]
    fn lane_of_finds_the_lane_that_minted_a_handle() {
        let mut state = 0x1a9e;
        for seed in std::iter::repeat_with(|| splitmix64(&mut state)).take(8) {
            let cipher = HandleCipher::new(seed);
            for lanes in [1, 2, 3, 4, 8, 12] {
                let mut alloc = HandleAllocator::with_partition(seed, 0, lanes as usize, lanes);
                for lane in 0..lanes {
                    for _ in 0..16 {
                        let h = alloc.alloc(lane as usize);
                        assert_eq!(alloc.lane_of(h), lane);
                    }
                }
                // Counter 0 is no lane's, and still maps to one.
                let unminted = Handle::from_raw(cipher.encrypt(0));
                assert!(alloc.lane_of(unminted) < lanes);
            }
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let c = HandleCipher::new(0xdead_beef);
        for v in (0..HANDLE_SPACE).step_by((HANDLE_SPACE / 997) as usize) {
            assert_eq!(c.decrypt(c.encrypt(v)), v, "roundtrip failed for {v}");
        }
    }

    #[test]
    fn encrypt_stays_in_domain() {
        let c = HandleCipher::new(42);
        for v in 0..10_000u64 {
            assert!(c.encrypt(v) < HANDLE_SPACE);
        }
    }

    #[test]
    fn no_collisions_in_prefix() {
        let mut alloc = HandleAllocator::new(7);
        let mut seen = HashSet::new();
        for _ in 0..100_000 {
            assert!(seen.insert(alloc.alloc(0)), "handle collision");
        }
    }

    #[test]
    fn sequence_is_not_the_counter() {
        // Unpredictability smoke test: the output sequence must not reveal
        // the counter. We check that consecutive outputs are not consecutive
        // values and that outputs are spread across the domain.
        let mut alloc = HandleAllocator::new(99);
        let vals: Vec<u64> = (0..1000).map(|_| alloc.alloc(0).raw()).collect();
        let consecutive = vals
            .windows(2)
            .filter(|w| w[1] == w[0] + 1 || w[1] == w[0].wrapping_sub(1))
            .count();
        assert!(consecutive < 5, "output sequence looks like a counter");
        let top_half = vals.iter().filter(|&&v| v >= HANDLE_SPACE / 2).count();
        assert!(
            (200..800).contains(&top_half),
            "outputs are not spread across the domain: {top_half}/1000 in top half"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = HandleCipher::new(1);
        let b = HandleCipher::new(2);
        let same = (0..256u64)
            .filter(|&v| a.encrypt(v) == b.encrypt(v))
            .count();
        assert!(same < 4, "seeds produce nearly identical permutations");
    }

    #[test]
    fn allocated_counts() {
        let mut alloc = HandleAllocator::new(1);
        assert_eq!(alloc.allocated(), 0);
        alloc.alloc(0);
        alloc.alloc(0);
        assert_eq!(alloc.allocated(), 2);
    }
}
