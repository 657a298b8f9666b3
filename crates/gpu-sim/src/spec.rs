/// Architectural parameters of the simulated GPU.
///
/// Only ratios matter for the reproduced figures; the absolute rates are
/// calibrated so that one GPU is roughly 30–60× a single 2010-era CPU core
/// on P2P work, matching the heterogeneous balance the paper reports.
#[derive(Clone, Copy, Debug)]
pub struct GpuSpec {
    /// Number of streaming multiprocessors (block slots).
    pub sms: usize,
    /// Threads per block; one target body per thread.
    pub block_size: usize,
    /// SIMT width. Blocks are padded to whole warps.
    pub warp_size: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Cycles for one thread to process one loaded source body.
    pub pair_cycles: f64,
    /// Cycles to cooperatively load one tile of `block_size` sources into
    /// shared memory (amortized latency + sync).
    pub tile_load_cycles: f64,
    /// Fixed host-side kernel launch overhead in seconds.
    pub launch_overhead_s: f64,
    /// Cycles per flop of offloaded *expansion* arithmetic (P2M/L2P):
    /// recurrence-heavy, scatter-writing code runs the GPU far below its
    /// streaming all-pairs efficiency.
    pub expansion_cycles_per_flop: f64,
}

/// The one device model: a Tesla C2050-like device (14 SMs, 1.15 GHz), ECC
/// on, single precision — the paper's Test System A accelerator, running its
/// all-pairs P2P kernel.
pub const C2050: GpuSpec = GpuSpec {
    sms: 14,
    block_size: 128,
    warp_size: 32,
    clock_hz: 1.15e9,
    pair_cycles: 200.0,
    tile_load_cycles: 200.0,
    launch_overhead_s: 20e-6,
    expansion_cycles_per_flop: 16.0,
};
