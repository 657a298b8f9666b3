//! Quickstart: solve a gravitational N-body problem with the adaptive FMM,
//! check it against direct summation, and show the heterogeneous-node
//! timing and the S knob in action.
//!
//! Run with: `cargo run --release --example quickstart`

use afmm_repro::prelude::*;
use fmm_math::Kernel;

fn main() {
    // 1. A Plummer sphere: the strongly non-uniform distribution the
    //    adaptive FMM exists for.
    let n = 20_000;
    let bodies = nbody::plummer(n, 1.0, 1.0, 7);
    println!("N = {n} bodies, Plummer distribution");

    // 2. Build the engine: expansion order 6, leaf capacity S = 64.
    let params = FmmParams::default();
    let mut engine = FmmEngine::new(GravityKernel::default(), params, &bodies.pos, 64);
    let t0 = std::time::Instant::now();
    let sol = engine.solve(&bodies.pos, &bodies.mass);
    println!(
        "FMM solve: {:.1} ms (host wall clock)",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // 3. Validate a sample of bodies against O(n^2) direct summation.
    let direct = nbody::direct_gravity(&bodies, 1.0, 0.0);
    let mut num = 0.0;
    let mut den = 0.0;
    for i in (0..n).step_by(97) {
        num += (sol.field[i] - direct[i]).norm_sq();
        den += direct[i].norm_sq();
    }
    println!(
        "relative field error vs direct sum: {:.2e}",
        (num / den).sqrt()
    );

    // 4. The heterogeneous-node view: time the same solve on the virtual
    //    Test System A (10 CPU cores + 4 GPUs) at three leaf capacities and
    //    watch S shift work between the CPU far field and the GPU near
    //    field — the paper's load-balancing lever.
    let node = HeteroNode::system_a(10, 4);
    let flops = engine.kernel.op_flops(engine.expansion_ops());
    println!("\n   S    t_cpu      t_gpu      compute   (virtual 10C+4G node)");
    for s in [16usize, 128, 1024] {
        engine.rebuild(&bodies.pos, s);
        engine.refresh_lists();
        let t = afmm::time_step(
            engine.tree(),
            engine.lists(),
            &flops,
            &node,
            afmm::ExecPolicy::default(),
        )
        .unwrap();
        println!(
            "{s:5}  {:.4} s   {:.4} s   {:.4} s",
            t.t_cpu,
            t.t_gpu,
            t.compute()
        );
    }
    println!("\nsmall S -> CPU-bound far field; large S -> GPU-bound near field.");
}
