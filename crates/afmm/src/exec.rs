use crate::config::HeteroNode;
use crate::error::Error;
use fmm_math::OpFlops;
use gpu_sim::{GpuJob, KernelTiming};
use octree::{InteractionLists, NodeId, Octree, NONE};
use sched_sim::{simulate, TaskGraph, TaskId};

/// Virtual-node timing of one FMM solve on a heterogeneous node.
#[derive(Clone, Debug)]
pub struct TimingReport {
    /// The paper's **CPU Time**: makespan of the far-field task DAG (plus
    /// near-field tasks when the node has no GPUs) on the virtual cores —
    /// "wall clock time between the first call to the upward sweep and the
    /// completion of the last task spawned during the downward sweep".
    pub t_cpu: f64,
    /// The paper's **GPU Time**: the maximum simulated kernel time over all
    /// GPUs; 0 when the node has none.
    pub t_gpu: f64,
    /// Aggregate core-seconds of CPU work (Σ per-core busy time) — the
    /// numerator of the observed effective parallelism.
    pub cpu_work_seconds: f64,
    /// Per-device kernel details, when GPUs are present.
    pub gpu: Option<KernelTiming>,
}

impl TimingReport {
    /// The paper's **Compute Time**: `max(CPU Time, GPU Time)`.
    pub fn compute(&self) -> f64 {
        self.t_cpu.max(self.t_gpu)
    }

    /// Observed effective parallelism (core-equivalents actually engaged).
    /// Non-finite inputs (a NaN/∞ makespan or work sum from a corrupted
    /// report) read as serial rather than poisoning downstream cost-model
    /// observations.
    pub fn parallel_rate(&self) -> f64 {
        if self.t_cpu > 0.0 && self.t_cpu.is_finite() && self.cpu_work_seconds.is_finite() {
            (self.cpu_work_seconds / self.t_cpu).max(1.0)
        } else {
            1.0
        }
    }

    /// Whole-system SIMT efficiency of the step's near-field launch, with
    /// "no measurement" (no GPU timing, or an empty launch) read as fully
    /// efficient — the uniform `None` handling shared by every consumer.
    pub fn gpu_efficiency(&self) -> f64 {
        self.gpu
            .as_ref()
            .and_then(KernelTiming::efficiency)
            .unwrap_or(1.0)
    }
}

/// Emit one telemetry span per FMM phase (P2M, M2M, M2L, L2L, L2P, P2P) for
/// a realized step.
///
/// The executor reports only the task graph's makespan, so per-phase
/// durations are *attributed*: the CPU-side phases share `t_cpu` in
/// proportion to their work (`counts × flops`), so the per-task overhead
/// and idle cores are spread over them and their spans sum to the
/// makespan. P2P takes the measured GPU makespan when devices are online
/// and its CPU share otherwise.
pub fn record_phase_spans(
    rec: &telemetry::Recorder,
    counts: &octree::OpCounts,
    flops: &OpFlops,
    node: &HeteroNode,
    timing: &TimingReport,
) {
    if !rec.is_enabled() {
        return;
    }
    let on_gpu = node.num_online_gpus() > 0;
    let p2p_flops = flops.p2p_per_pair * counts.p2p_interactions as f64;
    let phases: [(&'static str, f64, u64); 5] = [
        (
            "phase.p2m",
            flops.p2m_per_body * counts.p2m_bodies as f64,
            counts.p2m_bodies,
        ),
        (
            "phase.m2m",
            flops.m2m * counts.m2m_ops as f64,
            counts.m2m_ops,
        ),
        (
            "phase.m2l",
            flops.m2l * counts.m2l_ops as f64,
            counts.m2l_ops,
        ),
        (
            "phase.l2l",
            flops.l2l * counts.l2l_ops as f64,
            counts.l2l_ops,
        ),
        (
            "phase.l2p",
            flops.l2p_per_body * counts.l2p_bodies as f64,
            counts.l2p_bodies,
        ),
    ];
    let cpu_flops = phases.iter().map(|p| p.1).sum::<f64>() + if on_gpu { 0.0 } else { p2p_flops };
    let wall = |f: f64| {
        if cpu_flops > 0.0 {
            timing.t_cpu * (f / cpu_flops)
        } else {
            0.0
        }
    };
    for (name, f, ops) in phases {
        rec.span(name, wall(f), vec![("ops", telemetry::Value::U64(ops))]);
    }
    let p2p_dur = if on_gpu {
        timing.t_gpu
    } else {
        wall(p2p_flops)
    };
    rec.span(
        "phase.p2p",
        p2p_dur,
        vec![
            ("ops", telemetry::Value::U64(counts.p2p_interactions)),
            ("on_gpu", telemetry::Value::Bool(on_gpu)),
        ],
    );
}

/// Build the GPU work list: one [`GpuJob::p2p`] per active leaf with a
/// non-empty P2P interaction list, in traversal order (the order the paper's
/// partition walk consumes). Each job is priced from the leaf's list as it
/// is made, with no per-job allocation.
pub fn build_gpu_jobs(tree: &Octree, lists: &InteractionLists) -> Vec<GpuJob> {
    tree.active_leaves()
        .into_iter()
        .filter(|&id| !lists.p2p[id as usize].is_empty())
        .map(|id| {
            let sources = lists.p2p[id as usize].iter().map(|&b| tree.node(b).count());
            GpuJob::p2p(tree.node(id).count(), sources)
        })
        .collect()
}

/// What runs where — [`ExecPolicy::default`] is the paper's split (all
/// expansion work on the CPU); `offload_pl` implements the paper's §VIII.E
/// proposal: "move additional work to the GPU that can be performed more
/// efficiently... the P2M expansion formation and L2P expansion
/// evaluation", which helps CPU-starved configurations like 4C4G.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecPolicy {
    /// Move P2M and L2P to the GPUs (no effect on CPU-only nodes).
    pub offload_pl: bool,
}

/// Build the far-field task DAG exactly as the paper's recursive OpenMP
/// version spawns it:
///
/// * **UpSweep** is head-recursive: one task per non-empty visible node,
///   costing P2M (leaf) or one M2M per non-empty child (internal), that can
///   only run once all child tasks finished.
/// * **DownSweep** is tail-recursive: one task per node, costing L2L (from
///   the parent) plus its M2L list plus L2P (leaf), runnable once the
///   *parent's* task finished. The root's task additionally waits for the
///   entire upsweep (the paper's `taskwait` between phases).
///
/// When `include_p2p` is set (CPU-only nodes, e.g. the paper's serial
/// baseline where "both the expansion and direct work were run on this
/// single core"), each leaf task also carries its direct interactions.
pub fn build_task_graph(
    tree: &Octree,
    lists: &InteractionLists,
    flops: &OpFlops,
    include_p2p: bool,
) -> TaskGraph {
    build_task_graph_with(tree, lists, flops, include_p2p, true)
}

/// As [`build_task_graph`], with control over whether the per-body P2M/L2P
/// work stays in the CPU DAG (`include_pl = false` models the §VIII.E
/// offload).
fn build_task_graph_with(
    tree: &Octree,
    lists: &InteractionLists,
    flops: &OpFlops,
    include_p2p: bool,
    include_pl: bool,
) -> TaskGraph {
    let mut graph = TaskGraph::with_capacity(2 * tree.num_nodes());
    if tree.node(Octree::ROOT).count() == 0 {
        return graph;
    }
    let up_root = add_upsweep(&mut graph, tree, flops, include_pl, Octree::ROOT);
    add_downsweep(
        &mut graph,
        tree,
        lists,
        flops,
        include_p2p,
        include_pl,
        Octree::ROOT,
        up_root,
    );
    graph
}

/// Post-order: children first, then the node's own task. Returns the task id.
fn add_upsweep(
    graph: &mut TaskGraph,
    tree: &Octree,
    flops: &OpFlops,
    include_pl: bool,
    id: NodeId,
) -> TaskId {
    let node = tree.node(id);
    if node.is_leaf() {
        let cost = if include_pl {
            flops.p2m_per_body * node.count() as f64
        } else {
            0.0
        };
        return graph.add(cost, Vec::new());
    }
    let mut deps = Vec::with_capacity(8);
    let mut m2m = 0usize;
    for c in tree.visible_children(id) {
        if tree.node(c).count() == 0 {
            continue;
        }
        deps.push(add_upsweep(graph, tree, flops, include_pl, c));
        m2m += 1;
    }
    graph.add(flops.m2m * m2m as f64, deps)
}

/// Pre-order: the node's own task first (dep on parent), then children.
#[allow(clippy::too_many_arguments)]
fn add_downsweep(
    graph: &mut TaskGraph,
    tree: &Octree,
    lists: &InteractionLists,
    flops: &OpFlops,
    include_p2p: bool,
    include_pl: bool,
    id: NodeId,
    parent_task: TaskId,
) {
    let node = tree.node(id);
    if node.count() == 0 {
        return;
    }
    let mut cost = flops.m2l * lists.m2l[id as usize].len() as f64;
    if node.parent != NONE {
        cost += flops.l2l;
    }
    if node.is_leaf() {
        if include_pl {
            cost += flops.l2p_per_body * node.count() as f64;
        }
        if include_p2p {
            cost += flops.p2p_per_pair * lists.leaf_p2p(tree, id).0 as f64;
        }
    }
    let task = graph.add(cost, vec![parent_task]);
    for c in tree.visible_children(id) {
        add_downsweep(graph, tree, lists, flops, include_p2p, include_pl, c, task);
    }
}

/// Time one FMM solve of the given tree + interaction lists on `node`
/// under `policy`: far-field DAG makespan on the virtual cores, near-field
/// kernels ([`build_gpu_jobs`]) on the simulated GPUs, or folded into the
/// CPU DAG when there are none.
///
/// With `policy.offload_pl` and online GPUs present, P2M/L2P leave the CPU
/// DAG and run as an additional launch of per-leaf [`GpuJob::expansion`]
/// jobs (modeled at the GPU's expansion efficiency); expansion kernels are
/// assumed to overlap the CPU's translation phase, as the paper's proposal
/// implies.
///
/// A node whose GPUs have all dropped offline (see [`gpu_sim::FaultEvent`])
/// is timed like a CPU-only node: the near field folds back into the CPU
/// DAG instead of erroring — the resilience fallback. `Err` means the GPU
/// system itself rejected a valid-looking launch (a device dropped between
/// the check and the launch, or an internal contract broke).
///
/// The two halves are pure functions of the tree and the lists, so they
/// are priced side by side ([`rayon::join`]): the task graph built and
/// simulated on the caller's thread while one worker builds and launches
/// the GPU jobs. The graph's many small allocations so stay in the
/// caller's heap arena. On a tree under [`octree::fork_width`]'s size
/// both run on the caller's thread. Only the GPU half can fail, so the
/// result, `Err` included, is the one the serial order gives.
pub fn time_step(
    tree: &Octree,
    lists: &InteractionLists,
    flops: &OpFlops,
    node: &HeteroNode,
    policy: ExecPolicy,
) -> Result<TimingReport, Error> {
    let gpu_active = node.num_online_gpus() > 0;
    let offload = policy.offload_pl && gpu_active;
    let gpu_half = || -> Result<(f64, Option<KernelTiming>), Error> {
        match &node.gpus {
            Some(gpus) if gpu_active => {
                let timing = gpus.execute(&build_gpu_jobs(tree, lists))?;
                let mut t = timing.gpu_time().ok_or(Error::MissingGpuTiming)?;
                if offload {
                    let flops_per_body = flops.p2m_per_body + flops.l2p_per_body;
                    let ex_jobs: Vec<GpuJob> = tree
                        .active_leaves()
                        .into_iter()
                        .map(|id| GpuJob::expansion(tree.node(id).count(), flops_per_body))
                        .collect();
                    let ex = gpus.execute(&ex_jobs)?;
                    t += ex.gpu_time().ok_or(Error::MissingGpuTiming)?;
                }
                Ok((t, Some(timing)))
            }
            _ => Ok((0.0, None)),
        }
    };
    let cpu_half = || {
        let graph = build_task_graph_with(tree, lists, flops, !gpu_active, !offload);
        simulate(&graph, &node.cpu.to_sim_config())
    };
    let (sim, gpu) = match octree::fork_width(tree) {
        1 => (cpu_half(), gpu_half()),
        _ => rayon::join(cpu_half, gpu_half),
    };
    let (t_gpu, gpu) = gpu?;
    Ok(TimingReport {
        t_cpu: sim.makespan,
        t_gpu,
        cpu_work_seconds: sim.busy.iter().sum(),
        gpu,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FmmParams, HeteroNode};
    use crate::engine::FmmEngine;
    use fmm_math::{GravityKernel, Kernel};
    use nbody::plummer;

    fn engine_with_lists(n: usize, s: usize) -> FmmEngine<GravityKernel> {
        let b = plummer(n, 1.0, 1.0, 201);
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, s);
        e.refresh_lists();
        e
    }

    fn flops_of(e: &FmmEngine<GravityKernel>) -> OpFlops {
        e.kernel.op_flops(e.expansion_ops())
    }

    /// The engine's tree and lists timed on `node` under `policy`.
    pub(super) fn timed(
        e: &FmmEngine<GravityKernel>,
        f: &OpFlops,
        node: &HeteroNode,
        policy: ExecPolicy,
    ) -> TimingReport {
        time_step(e.tree(), e.lists(), f, node, policy).unwrap()
    }

    #[test]
    fn more_cores_reduce_cpu_time() {
        let e = engine_with_lists(4000, 32);
        let f = flops_of(&e);
        let t1 = timed(&e, &f, &HeteroNode::system_a(1, 1), ExecPolicy::default()).t_cpu;
        let t4 = timed(&e, &f, &HeteroNode::system_a(4, 1), ExecPolicy::default()).t_cpu;
        let t10 = timed(&e, &f, &HeteroNode::system_a(10, 1), ExecPolicy::default()).t_cpu;
        assert!(t4 < t1 && t10 < t4, "t1={t1} t4={t4} t10={t10}");
        let sp10 = t1 / t10;
        assert!(sp10 > 5.0 && sp10 <= 10.5, "10-core speedup {sp10}");
    }

    #[test]
    fn serial_makespan_is_total_work() {
        let e = engine_with_lists(1000, 16);
        let f = flops_of(&e);
        let node = HeteroNode::serial();
        let graph = build_task_graph(e.tree(), e.lists(), &f, true);
        let r = timed(&e, &f, &node, ExecPolicy::default());
        let expect = graph.total_work() / node.cpu.rate_flops
            + graph.len() as f64 * node.cpu.task_overhead_s;
        assert!(
            (r.t_cpu - expect).abs() < 1e-12 * expect,
            "{} vs {}",
            r.t_cpu,
            expect
        );
        assert_eq!(r.t_gpu, 0.0);
    }

    #[test]
    fn gpu_offload_removes_p2p_from_cpu() {
        let e = engine_with_lists(3000, 48);
        let f = flops_of(&e);
        let cpu_only = timed(&e, &f, &HeteroNode::system_a(4, 0), ExecPolicy::default());
        let hetero = timed(&e, &f, &HeteroNode::system_a(4, 1), ExecPolicy::default());
        assert!(hetero.t_cpu < cpu_only.t_cpu, "P2P must leave the CPU DAG");
        assert!(hetero.t_gpu > 0.0);
        assert!(cpu_only.t_gpu == 0.0);
        // GPUs crush all-pairs work: the near field must run much faster on
        // the accelerator than folded into the CPU cores.
        assert!(hetero.compute() < cpu_only.compute());
    }

    #[test]
    fn gpu_jobs_cover_all_interactions() {
        let e = engine_with_lists(2000, 32);
        let jobs = build_gpu_jobs(e.tree(), e.lists());
        let job_pairs: u64 = jobs.iter().map(GpuJob::work).sum();
        // Jobs count the diagonal (p_t × p_t includes self pairs), counts
        // exclude it.
        let diag: u64 = e
            .tree()
            .active_leaves()
            .iter()
            .filter(|&&id| !e.lists().p2p[id as usize].is_empty())
            .map(|&id| e.tree().node(id).count() as u64)
            .sum();
        assert_eq!(job_pairs, e.counts().p2p_interactions + diag);
    }

    #[test]
    fn gpu_block_steps_are_the_jobs_blocks_times_steps_and_tiles() {
        // The count the cost model prices the GPU with is the kernel's own
        // charge: per job ⌈threads/B⌉ blocks, each running its `steps`
        // source bodies and its tile loads (recovered from `block_cycles`,
        // exact in f64), over every ×1.6 grid point of S from 8 to 4096.
        let spec = gpu_sim::C2050;
        let n = 3000;
        for (name, pos) in [
            ("plummer", plummer(n, 1.0, 1.0, 211).pos),
            ("uniform", nbody::uniform_cube(n, 2.0, 212).pos),
            (
                "two clusters",
                nbody::two_clusters(n, 0.5, 1.0, 8.0, 0.0, 213).pos,
            ),
        ] {
            let mut s = 8;
            while s <= 4096 {
                let e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &pos, s);
                let tree = e.tree();
                let lists = octree::dual_traversal(tree, e.params().mac);
                let recount: u64 = build_gpu_jobs(tree, &lists)
                    .iter()
                    .map(|job| {
                        let tiles = (job.block_cycles - job.steps as f64 * spec.pair_cycles)
                            / spec.tile_load_cycles;
                        let blocks = job.threads.div_ceil(spec.block_size) as u64;
                        blocks * (job.steps + tiles as u64)
                    })
                    .sum();
                let counts = octree::count_ops(tree, &lists);
                assert_eq!(counts.gpu_block_steps, recount, "{name}, S {s}");
                assert!(recount > 0, "{name}, S {s}");
                s = (s as f64 * 1.6).ceil() as usize;
            }
        }
    }

    #[test]
    fn task_graph_mirrors_op_counts() {
        let e = engine_with_lists(1500, 24);
        let f = flops_of(&e);
        let graph = build_task_graph(e.tree(), e.lists(), &f, false);
        let c = e.counts();
        let expect_work = f.p2m_per_body * c.p2m_bodies as f64
            + f.m2m * c.m2m_ops as f64
            + f.m2l * c.m2l_ops as f64
            + f.l2l * c.l2l_ops as f64
            + f.l2p_per_body * c.l2p_bodies as f64;
        assert!(
            (graph.total_work() - expect_work).abs() < 1e-9 * expect_work,
            "graph work {} vs counted {}",
            graph.total_work(),
            expect_work
        );
    }

    #[test]
    fn deeper_trees_have_longer_critical_paths() {
        use sched_sim::critical_path;
        let shallow = engine_with_lists(3000, 512);
        let deep = engine_with_lists(3000, 8);
        let f = flops_of(&shallow);
        let g_shallow = build_task_graph(shallow.tree(), shallow.lists(), &f, false);
        let g_deep = build_task_graph(deep.tree(), deep.lists(), &f, false);
        assert!(g_deep.len() > g_shallow.len());
        assert!(critical_path(&g_deep) > 0.0 && critical_path(&g_shallow) > 0.0);
    }

    #[test]
    fn parallel_rate_bounded_by_cores() {
        let e = engine_with_lists(4000, 32);
        let f = flops_of(&e);
        for cores in [1usize, 4, 10] {
            let r = timed(
                &e,
                &f,
                &HeteroNode::system_a(cores, 1),
                ExecPolicy::default(),
            );
            let pr = r.parallel_rate();
            assert!(
                pr >= 1.0 && pr <= cores as f64 + 1e-9,
                "cores={cores}: rate {pr}"
            );
        }
    }

    #[test]
    fn timing_deterministic() {
        let e = engine_with_lists(2500, 40);
        let f = flops_of(&e);
        let node = HeteroNode::system_a(10, 4);
        let a = timed(&e, &f, &node, ExecPolicy::default());
        let b = timed(&e, &f, &node, ExecPolicy::default());
        assert_eq!(a.t_cpu, b.t_cpu);
        assert_eq!(a.t_gpu, b.t_gpu);
    }

    /// One Plummer tree timed on four GPU mixes, with and without the
    /// §VIII.E offload: `t_cpu`, `t_gpu` and every device's P2P kernel time
    /// pinned to the bit, and the partition pinned by its group sizes (the
    /// walk hands out contiguous runs of jobs in order).
    #[test]
    fn time_step_bits_are_pinned() {
        let e = engine_with_lists(6000, 64);
        let f = flops_of(&e);
        let faulted = |cores, event| {
            let mut node = HeteroNode::system_a(cores, 4);
            let gpus = node.gpus.as_mut().unwrap();
            gpus.apply_event(&event).unwrap();
            node
        };
        let nodes = [
            HeteroNode::system_a(10, 4),
            HeteroNode::system_a(10, 1),
            faulted(
                4,
                gpu_sim::FaultEvent::GpuSlowdown {
                    device: 2,
                    factor: 2.0,
                },
            ),
            faulted(4, gpu_sim::FaultEvent::GpuDropout { device: 1 }),
        ];
        let mut got = Vec::new();
        for node in &nodes {
            for offload_pl in [false, true] {
                let r = timed(&e, &f, node, ExecPolicy { offload_pl });
                let gpu = r.gpu.unwrap();
                let flat: Vec<usize> = gpu.assignment.concat();
                assert_eq!(flat, (0..flat.len()).collect::<Vec<_>>());
                got.push((
                    [r.t_cpu.to_bits(), r.t_gpu.to_bits()],
                    gpu.per_gpu
                        .iter()
                        .map(|k| k.elapsed_s.to_bits())
                        .collect::<Vec<_>>(),
                    gpu.assignment.iter().map(Vec::len).collect::<Vec<_>>(),
                ));
            }
        }
        let nominal = [
            4568458818145100754,
            4568399066734948955,
            4568496112649423688,
            4567777090646724531,
        ];
        let slowed = [
            4569286114515189075,
            4569243205784408925,
            4569902075360780768,
            4568570701658069557,
        ];
        let dropped = [
            4569989095870867616,
            0,
            4571107931000555651,
            4569567226854225388,
        ];
        let want: [([u64; 2], &[u64], &[usize]); 8] = [
            (
                [4581658699536883409, 4568496112649423688],
                &nominal,
                &[95, 91, 97, 86],
            ),
            (
                [4581554708899471632, 4568693139916777927],
                &nominal,
                &[95, 91, 97, 86],
            ),
            (
                [4581658699536883409, 4576796320386730985],
                &[4576796320386730985],
                &[369],
            ),
            (
                [4581554708899471632, 4576953370351548091],
                &[4576796320386730985],
                &[369],
            ),
            (
                [4587537967985854557, 4569902075360780768],
                &slowed,
                &[107, 108, 56, 98],
            ),
            (
                [4587424346130423671, 4570166778117914990],
                &slowed,
                &[107, 108, 56, 98],
            ),
            (
                [4587537967985854557, 4571107931000555651],
                &dropped,
                &[119, 0, 135, 115],
            ),
            (
                [4587424346130423671, 4571261627968875229],
                &dropped,
                &[119, 0, 135, 115],
            ),
        ];
        assert_eq!(got.len(), want.len());
        for (i, ((times, elapsed, groups), (w_times, w_elapsed, w_groups))) in
            got.iter().zip(want).enumerate()
        {
            assert_eq!(*times, w_times, "case {i}: t_cpu, t_gpu");
            assert_eq!(
                elapsed.as_slice(),
                w_elapsed,
                "case {i}: per-device elapsed_s"
            );
            assert_eq!(groups.as_slice(), w_groups, "case {i}: assignment");
        }
    }

    #[test]
    fn empty_tree_times_to_zero() {
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &[], 8);
        e.refresh_lists();
        let f = flops_of(&e);
        let r = timed(&e, &f, &HeteroNode::system_a(4, 2), ExecPolicy::default());
        assert_eq!(r.t_cpu, 0.0);
        assert_eq!(r.t_gpu, 0.0);
        assert_eq!(r.compute(), 0.0);
    }

    /// Every bit of a report: the three times, then each device's kernel.
    fn report_bits(r: &TimingReport) -> Vec<u64> {
        let mut bits = [r.t_cpu, r.t_gpu, r.cpu_work_seconds]
            .map(f64::to_bits)
            .to_vec();
        for (k, jobs) in r
            .gpu
            .iter()
            .flat_map(|g| g.per_gpu.iter().zip(&g.assignment))
        {
            bits.extend([k.elapsed_s.to_bits(), k.useful_pairs, k.occupied_pairs]);
            bits.extend([k.blocks, jobs.len()].map(|n| n as u64));
            bits.extend(jobs.iter().map(|&j| j as u64));
        }
        bits
    }

    #[test]
    fn time_step_bits_do_not_depend_on_the_width() {
        let e = engine_with_lists(12_000, 16);
        assert!(
            e.tree().num_nodes() >= 1024,
            "a tree this small is timed inline"
        );
        let f = flops_of(&e);
        let mut one_offline = HeteroNode::system_a(4, 4);
        let drop = gpu_sim::FaultEvent::GpuDropout { device: 1 };
        one_offline
            .gpus
            .as_mut()
            .unwrap()
            .apply_event(&drop)
            .unwrap();
        for node in [HeteroNode::system_a(10, 4), one_offline] {
            for offload_pl in [false, true] {
                let policy = ExecPolicy { offload_pl };
                let at = |width: usize| {
                    let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build();
                    report_bits(&pool.unwrap().install(|| timed(&e, &f, &node, policy)))
                };
                assert_eq!(
                    at(1),
                    at(2),
                    "{} GPUs online, {policy:?}",
                    node.num_online_gpus()
                );
            }
        }
    }
}

#[cfg(test)]
mod offload_tests {
    use super::*;
    use crate::config::{FmmParams, HeteroNode};
    use crate::engine::FmmEngine;
    use fmm_math::{GravityKernel, Kernel};
    use nbody::plummer;
    use tests::timed;

    #[test]
    fn offload_moves_pl_work_between_devices() {
        let b = plummer(20_000, 1.0, 1.0, 211);
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 128);
        e.refresh_lists();
        let flops = e.kernel.op_flops(e.expansion_ops());
        let node = HeteroNode::system_a(4, 4);
        let base = timed(&e, &flops, &node, ExecPolicy::default());
        let off = timed(&e, &flops, &node, ExecPolicy { offload_pl: true });
        assert!(off.t_cpu < base.t_cpu, "P2M/L2P must leave the CPU DAG");
        assert!(off.t_gpu > base.t_gpu, "...and land on the GPUs");
    }

    #[test]
    fn offload_helps_cpu_starved_configs() {
        // The paper's §VIII.E scenario, at its sharpest: a badly CPU-starved
        // node (2 cores, 8 GPUs) is pinned by the per-body P2M/L2P floor at
        // its optimum; moving that work to the GPUs must lower the best
        // achievable compute time.
        let b = plummer(50_000, 1.0, 1.0, 212);
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 128);
        let flops = e.kernel.op_flops(e.expansion_ops());
        let node = HeteroNode::system_a(2, 8);
        let mut best_base = f64::INFINITY;
        let mut best_off = f64::INFINITY;
        let mut s = 64usize;
        while s <= 4096 {
            e.rebuild(&b.pos, s);
            e.refresh_lists();
            let base = timed(&e, &flops, &node, ExecPolicy::default()).compute();
            let off = timed(&e, &flops, &node, ExecPolicy { offload_pl: true }).compute();
            best_base = best_base.min(base);
            best_off = best_off.min(off);
            s *= 2;
        }
        assert!(
            best_off < 0.97 * best_base,
            "offload should help the unbalanced node: {best_off} !< 0.97 * {best_base}"
        );
    }

    #[test]
    fn offload_noop_without_gpus() {
        let b = plummer(2000, 1.0, 1.0, 213);
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 32);
        e.refresh_lists();
        let flops = e.kernel.op_flops(e.expansion_ops());
        let node = HeteroNode::serial();
        let base = timed(&e, &flops, &node, ExecPolicy::default());
        let off = timed(&e, &flops, &node, ExecPolicy { offload_pl: true });
        assert_eq!(base.t_cpu, off.t_cpu);
        assert_eq!(base.t_gpu, off.t_gpu);
    }
}
