//! Small 3D geometry primitives shared by the AFMM crates.
//!
//! This crate is dependency-free and holds the vocabulary types used across
//! the workspace: [`Vec3`], [`Aabb`], and Morton (Z-order) encoding used by
//! the adaptive octree; and [`avx2`], the one CPU test the workspace's
//! vectorised rows dispatch on.

mod aabb;
mod morton;
mod vec3;

pub use aabb::Aabb;
pub use morton::{morton_decode, morton_encode, octant_of, MAX_MORTON_LEVEL};
pub use vec3::Vec3;

/// Whether the running CPU has AVX2. A row written once and compiled twice
/// — for the build's baseline (SSE2 on x86-64) and, under
/// `#[target_feature(enable = "avx2")]`, twice as wide — runs the wide build
/// where this holds; both builds give the same bits. Always `false` off
/// x86-64.
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}
