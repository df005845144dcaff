//! Seeded inputs. Every request is a pure function of `(seed, workload,
//! connection, index)`, so the untraced run, the traced replay and the
//! post-window verification all rebuild the exact bytes a client sent
//! without keeping them in memory.

use crate::Workload;
use mfn_serve::{Query, SplitMix64, Zipf};

/// Patches pre-encoded at set-up for `query_hot` and `refine`.
pub const HOT_PATCHES: usize = 8;
/// Points per `query_hot` request, drawn uniformly.
pub const HOT_POINTS: [usize; 3] = [1, 16, 256];
/// Points per `query_cold` and `refine` request.
pub const SMALL_POINTS: usize = 16;
/// Refinement step budget per `refine` request.
pub const REFINE_STEPS: u32 = 16;

/// One request, as a client sends it.
pub enum Request {
    /// `Query` against pre-encoded patch `patch`.
    Hot { patch: usize, points: Vec<Query> },
    /// `EncodeQuery` of a patch no earlier request carried.
    Cold { data: Vec<f32>, points: Vec<Query> },
    /// `Refine` of pre-encoded patch `patch`.
    Refine { patch: usize, points: Vec<Query> },
}

impl Request {
    pub fn points(&self) -> &[Query] {
        match self {
            Request::Hot { points, .. }
            | Request::Cold { points, .. }
            | Request::Refine { points, .. } => points,
        }
    }
}

fn mix(seed: u64, tag: u64, a: u64, b: u64) -> SplitMix64 {
    let mut m = SplitMix64::new(seed ^ tag.rotate_left(48));
    let x = m.next_u64() ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut m = SplitMix64::new(x);
    SplitMix64::new(m.next_u64() ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
}

/// A smooth convection-like LR patch (`C × nt × nz × nx`, flattened) with
/// seeded phases and amplitudes plus a small seeded jitter, so no two
/// generated patches share bytes.
pub fn patch(rng: &mut SplitMix64, dims: [usize; 4]) -> Vec<f32> {
    use std::f64::consts::PI;
    let [c, nt, nz, nx] = dims;
    let phase = 2.0 * PI * rng.next_f64();
    let drift = 0.5 * rng.next_f64();
    let amp = 0.05 + 0.1 * rng.next_f64();
    let mut out = Vec::with_capacity(c * nt * nz * nx);
    for ch in 0..c {
        for it in 0..nt {
            let t = it as f64 / nt as f64;
            for iz in 0..nz {
                let z = iz as f64 / (nz - 1).max(1) as f64;
                for ix in 0..nx {
                    let x = ix as f64 / nx as f64;
                    let roll = (PI * z).sin() * (2.0 * PI * x + phase + drift * t).cos();
                    let v = match ch {
                        0 => amp * (PI * z).cos() * (2.0 * PI * x + phase).sin(),
                        1 => amp * roll,
                        2 => (1.0 - z) + amp * roll,
                        _ => amp * (PI * z).cos() * (2.0 * PI * x + phase + drift * t).sin(),
                    };
                    out.push((v + 1e-3 * (rng.next_f64() - 0.5)) as f32);
                }
            }
        }
    }
    out
}

fn points(rng: &mut SplitMix64, n: usize, lo: f64, hi: f64) -> Vec<Query> {
    (0..n)
        .map(|_| {
            let mut c = || (lo + (hi - lo) * rng.next_f64()) as f32;
            (0usize, [c(), c(), c()])
        })
        .collect()
}

/// Pre-encoded patch `k` of the run.
pub fn hot_patch(seed: u64, k: usize, dims: [usize; 4]) -> Vec<f32> {
    patch(&mut mix(seed, 0x407, k as u64, 0), dims)
}

/// Request `idx` of connection `conn`.
pub fn request(w: Workload, seed: u64, conn: usize, idx: u64, dims: [usize; 4]) -> Request {
    let mut rng = mix(seed, w as u64 + 1, conn as u64, idx);
    let zipf = || Zipf::new(HOT_PATCHES, 1.0);
    match w {
        Workload::QueryHot => {
            let patch = zipf().sample(&mut rng);
            let n = HOT_POINTS[rng.next_below(HOT_POINTS.len() as u64) as usize];
            Request::Hot { patch, points: points(&mut rng, n, 0.0, 1.0) }
        }
        Workload::QueryCold => {
            let data = patch(&mut rng, dims);
            Request::Cold { data, points: points(&mut rng, SMALL_POINTS, 0.0, 1.0) }
        }
        // Interior points, clear of the FD stencil's clamp band.
        Workload::Refine => {
            let patch = zipf().sample(&mut rng);
            Request::Refine { patch, points: points(&mut rng, SMALL_POINTS, 0.1, 0.9) }
        }
        Workload::Train => unreachable!("train draws batches, not requests"),
    }
}
