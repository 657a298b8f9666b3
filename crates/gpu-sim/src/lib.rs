//! Simulated CUDA-like accelerators for the AFMM's near-field (P2P) work.
//!
//! The paper runs all-pairs P2P kernels on 1–4 Tesla C2050 GPUs; this
//! machine has none, so the reproduction executes the *physics* on the host
//! (exactly — see the `afmm` crate) while this crate models the *clock* of
//! the paper's execution scheme faithfully, on one device model
//! ([`C2050`]):
//!
//! * one thread per target body, blocks of `block_size` threads, as many
//!   blocks as needed per target node;
//! * source bodies loaded cooperatively in tiles, then marched through in
//!   lock step (the Nyland–Harris–Prins all-pairs scheme the paper adapts);
//!   [`GpuJob::p2p`] prices one target leaf's block by this tile rule once,
//!   when the job is made;
//! * threads in a partially filled block idle but still occupy the block —
//!   the efficiency loss for "small target nodes which have a large number
//!   of sources" the paper calls out;
//! * blocks scheduled greedily over SM slots; kernel time is the SM
//!   makespan (the simulated `cudaEventElapsedTime`, [`run_kernel`]);
//! * a multi-GPU [`GpuSystem`] with the paper's interaction-count walk
//!   partition, where GPU time is the **maximum** kernel time over devices.
//!
//! Offloaded expansion work ([`GpuJob::expansion`], the paper's §VIII.E
//! proposal) is the same job shape — one thread per body, one step — and
//! launches through the same [`GpuSystem::execute`].
//!
//! Everything is deterministic: same jobs + same device health ⇒ same times.

mod device;
mod error;
mod faults;
mod partition;
mod spec;
mod system;

pub use device::{run_kernel, GpuJob, KernelReport};
pub use error::Error;
pub use faults::{FaultEvent, FaultSchedule, TimedFault};
pub use partition::{partition_by_interactions, partition_by_node_count};
pub use spec::{GpuSpec, C2050};
pub use system::{DeviceStatus, GpuSystem, KernelTiming};
