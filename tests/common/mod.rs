//! Shared helpers for the integration-test binaries.
//!
//! Each file under `tests/` compiles as its own crate, so this module is
//! pulled in per binary via `mod common;` — one implementation of the
//! deterministic xorshift generator and one list of PCG variants instead
//! of a drifting copy per test.

// Each test binary uses a subset of the helpers; the unused remainder is
// expected, not dead weight to warn about.
#![allow(dead_code)]

use mspcg::sparse::PcgVariant;

/// Every pinned variant the harnesses cover. The s-step schedule is
/// exercised at two block sizes — block granularity (convergence is only
/// checked every `s` iterations) is why iteration counts are compared
/// with a slack, not an equality.
pub const ALL_VARIANTS: [PcgVariant; 4] = [
    PcgVariant::Classic,
    PcgVariant::Pipelined,
    PcgVariant::SStep { s: 2 },
    PcgVariant::SStep { s: 4 },
];

/// Compile-time exhaustiveness guard: a new `PcgVariant` entry makes this
/// `match` non-exhaustive, failing the build until the variant is added
/// to [`ALL_VARIANTS`] (Auto resolves to classic, it is not a schedule).
fn exhaustiveness_guard(v: PcgVariant) {
    match v {
        PcgVariant::Auto
        | PcgVariant::Classic
        | PcgVariant::Pipelined
        | PcgVariant::SStep { .. } => {}
    }
}

/// Deterministic xorshift64 stream (the in-repo property-test generator).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw from `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}
