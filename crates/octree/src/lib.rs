//! Adaptive variable-depth octree for the AFMM (Cheng–Greengard–Rokhlin
//! style spatial decomposition).
//!
//! Key design points, mirroring the paper:
//!
//! * A node is subdivided while it holds more than `S` bodies; leaves may
//!   occur at any level, so the tree has varying depth.
//! * Construction permutes a body-index array so that **every subtree owns a
//!   contiguous range** of the tree ordering (Morton order). This makes the
//!   paper's [`Octree::collapse`] literally "just set a flag" — the eight
//!   children are hidden from the FMM and the parent's range already covers
//!   their bodies — and makes [`Octree::push_down`] a single in-range
//!   partition that can reclaim previously hidden children from the node
//!   buffer before allocating.
//! * [`Octree::enforce_s`] restores the S invariant after bodies move
//!   (collapse under-full parents, push down over-full leaves).
//! * [`Octree::rebin`] re-sorts moved bodies into the *unchanged* tree
//!   structure — exactly what the paper's strategy 1/2 need between rebuilds
//!   — leaf by leaf, sorting only the bodies that changed leaf.
//! * [`dual_traversal`] produces the M2L and P2P interaction lists with a
//!   multipole acceptance criterion, using only the paper's six operations.

mod build;
mod modify;
mod node;
mod plan;
mod rebin;
mod stats;
mod traversal;

pub use build::{build_adaptive, build_adaptive_in_cube, build_uniform, BuildParams};
pub use modify::EnforceOutcome;
pub use node::{Node, NodeId, Octree, TreeSnapshot, NONE};
pub use plan::{IncrementalLists, PlanRefresh};
pub use stats::{count_ops, node_op_counts, OpCounts, TreeStats};
pub use traversal::{dual_traversal, fork_width, InteractionLists, Mac};

/// `n` points uniform in the cube [-1, 1)³, drawn from `seed`: the bodies of
/// the unit tests.
#[cfg(test)]
fn random_points(n: usize, seed: u64) -> Vec<geom::Vec3> {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut coord = move || rng.random_range(-1.0..1.0);
    (0..n)
        .map(|_| geom::Vec3::new(coord(), coord(), coord()))
        .collect()
}
