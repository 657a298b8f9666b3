//! Cartesian Taylor-expansion mathematics for the adaptive fast multipole
//! method.
//!
//! The original paper uses spherical-harmonics expansions; this crate
//! implements the mathematically equivalent *cartesian* Taylor formulation of
//! order `p` (see DESIGN.md §2 for why the substitution preserves the paper's
//! behaviour): multipole coefficients are weighted moments
//! `M_α = Σ_s q_s (y_s − c)^α / α!`, local coefficients are field derivatives
//! `L_β = ∂^β Φ(c)`, and the M2L translation contracts multipole moments with
//! the derivative tensor `∂^γ (1/r)` evaluated via McMurchie–Davidson
//! recurrences.
//!
//! The six FMM operations of the paper map onto:
//!
//! | op  | function |
//! |-----|----------|
//! | P2M | [`Kernel::p2m_tile`] |
//! | M2M | [`ExpansionOps::m2m`] (kernel-independent) |
//! | M2L | [`ExpansionOps::m2l_batch`]: [`M2L_LANES`] sources into one target, side by side in `f32` lanes over per-node [`ExpansionOps::source_form`]s in cell units (each lane in units of the larger of its source and target cell; orders up to [`MAX_ORDER`]; kernel-independent, one lane tensor shared across channels; only the `2n+1` harmonic components per order are contracted), summed per `β` in `f64` into the `f64` local; [`ExpansionOps::m2l`] is its one-source `f64` oracle. The 7-channel Stokeslet costs 5.2× gravity per source in full batches at p = 6 (5.1× one source at a time through the oracle) |
//! | L2L | [`ExpansionOps::l2l`] (kernel-independent) |
//! | L2P | [`Kernel::l2p_tile`] |
//! | P2P | [`Kernel::p2p_split`]: the pairs in f32 over split (`hi + lo`) coordinates in a [`SplitTile`], eight targets per AVX2 register where the CPU has it and four per SSE2 register where not ([`p2p_width`]; the lanes are targets, so the bits are the same), each source tile's f32 sums added into the f64 output; [`Kernel::p2p_tile`] is its f64 oracle, which every direct-sum reference runs |
//!
//! The three body-touching operators run on structure-of-arrays
//! [`BodyTile`]s; [`Kernel::p2m`] / [`Kernel::l2p`] / [`Kernel::p2p`] are
//! thin `&[Vec3]` adapters over the f64 tile forms.
//! M2L runs on structure-of-arrays *source lanes*: the derivative tensors
//! and the scaled source forms of a batch are rows of one `f32` per source
//! (DESIGN.md §5).
//!
//! Two kernels are provided: Newtonian [`GravityKernel`] (1 harmonic channel)
//! and the regularized [`StokesletKernel`] of Cortez et al. (7 harmonic
//! channels via the classical charge + dipole decomposition), whose M2L cost
//! is several times the gravity cost — the property the paper exploits in its
//! Fig. 10 experiment.

mod expansion;
mod kernel;
mod laplace;
mod multiindex;
mod powers;
mod stokeslet;
mod tensor;
mod tile;

pub use expansion::{ExpansionOps, M2lScratch, M2lSource, M2L_LANES};
pub use kernel::{Kernel, OpFlops};
pub use laplace::GravityKernel;
pub use multiindex::{nterms, MultiIndexSet, MAX_ORDER};
pub use powers::power_series;
pub use stokeslet::{StokesletKernel, STOKESLET_CHANNELS};
pub use tensor::DerivScratch;
pub use tile::{p2p_width, BodyTile, FieldTile, SplitTile, TILE_BLOCK};
