//! Per-layer probes: direct calls into each crate's public functions over a
//! workload's final tree and plan, timed one operation class at a time.

use crate::loops::Accuracy;
use crate::stats::{median, sorted};
use crate::trace::Tracer;
use afmm::{build_gpu_jobs, build_task_graph, CostModel, FmmEngine, HeteroNode};
use fmm_math::{DerivScratch, ExpansionOps, Kernel};
use geom::Vec3;
use octree::{
    build_adaptive_in_cube, dual_traversal, BuildParams, IncrementalLists, InteractionLists,
    NodeId, Octree, TreeStats, NONE,
};
use std::hint::black_box;
use std::time::Instant;

/// Stop a kernel pass once it has done this much work: enough for a steady
/// per-op figure without re-running a whole solve.
const P2P_PAIR_BUDGET: u64 = 60_000_000;
const M2L_OP_BUDGET: u64 = 200_000;
/// Twigs collapsed and pushed back down to time a plan patch.
const PATCH_EDITS: usize = 32;

/// Seconds per operation of the six FMM operations (zero where not probed).
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelCosts {
    pub p2m_per_body: f64,
    pub m2m: f64,
    pub m2l: f64,
    pub l2l: f64,
    pub l2p_per_body: f64,
    pub p2p_per_pair: f64,
    pub p2p_flops_per_pair: f64,
    pub m2l_flops: f64,
}

#[derive(Clone, Debug, Default)]
pub struct Probes {
    pub kernels: KernelCosts,
    pub build_s: f64,
    pub traverse_s: f64,
    pub patch_s_per_edit: f64,
    pub tree: TreeStats,
    pub s: usize,
    pub simulate_s: f64,
    pub schedule_s: f64,
    pub tasks: usize,
    pub parallel_rate: f64,
    pub gpu_execute_s: f64,
    pub gpu_jobs: usize,
    pub gpu_efficiency: f64,
    pub gpu_imbalance: f64,
    pub predict_s: f64,
    pub checkpoint_s: f64,
    pub restore_s: f64,
    pub checkpoint_bytes: usize,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Median wall of `reps` calls.
fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(
        &(0..reps)
            .map(|_| timed(|| black_box(f())).1)
            .collect::<Vec<_>>(),
    )
}

/// 90th percentile, over all bodies, of the FMM field's relative error
/// against direct summation. One all-pairs `p2p` with the self-interaction
/// flag set is the reference: the kernel then treats each body's own index by
/// its own rule (gravity skips it, the regularized Stokeslet keeps its finite
/// self term), exactly as a solve does, where a plain `p2p(.., false)` would
/// divide by zero at zero softening. A percentile over every body, because
/// an L2 norm over a 512-body sample moved by a fifth from seed to seed.
pub fn accuracy<K: Kernel>(
    kernel: &K,
    pos: &[Vec3],
    strength: &[f64],
    fmm_field: &[Vec3],
) -> Accuracy {
    let n = pos.len();
    let (mut pot, mut direct) = (vec![0.0; n], vec![Vec3::ZERO; n]);
    let ((), direct_s) = timed(|| kernel.p2p(pos, &mut pot, &mut direct, pos, strength, true));
    let rel: Vec<f64> = fmm_field
        .iter()
        .zip(&direct)
        .map(|(&f, &d)| (f - d).norm() / d.norm())
        .collect();
    Accuracy {
        field_rel_err: sorted(&rel)[(n * 9 / 10).min(n - 1)],
        direct_ns_per_pair: direct_s * 1e9 / (n * n) as f64,
    }
}

/// Time each FMM operation class in its own pass over the tree, in the order
/// a solve runs them so every pass reads real expansions.
fn kernel_costs<K: Kernel>(
    kernel: &K,
    ops: &ExpansionOps,
    tree: &Octree,
    lists: &InteractionLists,
    pos: &[Vec3],
    strength: &[f64],
) -> KernelCosts {
    let sd = kernel.strength_dim();
    let ch = kernel.channels();
    let stride = ch * ops.nterms();
    let pos_t: Vec<Vec3> = tree.order().iter().map(|&b| pos[b as usize]).collect();
    let mut str_t = Vec::with_capacity(sd * pos.len());
    for &b in tree.order() {
        str_t.extend_from_slice(&strength[sd * b as usize..sd * (b as usize + 1)]);
    }
    let slot = |id: NodeId| id as usize * stride..(id as usize + 1) * stride;
    let mut multipoles = vec![0.0; tree.num_nodes() * stride];
    let mut locals = vec![0.0; tree.num_nodes() * stride];
    let mut pow = Vec::new();
    let leaves = tree.active_leaves();
    let levels = tree.levels();
    let n = pos.len() as f64;

    let ((), p2m_s) = timed(|| {
        for &id in &leaves {
            let r = tree.node(id).range();
            kernel.p2m(
                ops,
                tree.node(id).center,
                &pos_t[r.clone()],
                &str_t[sd * r.start..sd * r.end],
                &mut multipoles[slot(id)],
                &mut pow,
            );
        }
    });

    // Children sit after their parent in the node arena, so one split gives
    // the parent's slot mutably next to its children's.
    let mut m2m_ops = 0u64;
    let ((), m2m_s) = timed(|| {
        for lv in levels.iter().rev() {
            for &id in lv.iter().filter(|&&id| !tree.node(id).is_leaf()) {
                let (head, tail) = multipoles.split_at_mut((id as usize + 1) * stride);
                let parent = &mut head[id as usize * stride..];
                for c in tree
                    .visible_children(id)
                    .filter(|&c| tree.node(c).count() > 0)
                {
                    let at = (c - id - 1) as usize * stride;
                    let t = tree.node(c).center - tree.node(id).center;
                    ops.m2m(&tail[at..at + stride], t, parent, ch, &mut pow);
                    m2m_ops += 1;
                }
            }
        }
    });

    let (mut ds, mut tens) = (DerivScratch::default(), Vec::new());
    let mut m2l_ops = 0u64;
    let ((), m2l_s) = timed(|| {
        for id in tree.visible_nodes() {
            if m2l_ops >= M2L_OP_BUDGET {
                break;
            }
            for &b in &lists.m2l[id as usize] {
                let r = tree.node(id).center - tree.node(b).center;
                ops.m2l(
                    &multipoles[slot(b)],
                    r,
                    &mut locals[slot(id)],
                    ch,
                    &mut ds,
                    &mut tens,
                );
                m2l_ops += 1;
            }
        }
    });

    let mut l2l_ops = 0u64;
    let ((), l2l_s) = timed(|| {
        for lv in &levels {
            for &id in lv {
                let node = tree.node(id);
                if node.parent == NONE || node.count() == 0 {
                    continue;
                }
                let (head, tail) = locals.split_at_mut(id as usize * stride);
                let t = node.center - tree.node(node.parent).center;
                ops.l2l(
                    &head[slot(node.parent)],
                    t,
                    &mut tail[..stride],
                    ch,
                    &mut pow,
                );
                l2l_ops += 1;
            }
        }
    });

    let mut pot = vec![0.0; pos.len()];
    let mut out = vec![Vec3::ZERO; pos.len()];
    let ((), l2p_s) = timed(|| {
        for &id in &leaves {
            let r = tree.node(id).range();
            kernel.l2p(
                ops,
                tree.node(id).center,
                &locals[slot(id)],
                &pos_t[r.clone()],
                &mut pot[r.clone()],
                &mut out[r],
                &mut pow,
            );
        }
    });

    let mut pairs = 0u64;
    let ((), p2p_s) = timed(|| {
        for &id in &leaves {
            if pairs >= P2P_PAIR_BUDGET {
                break;
            }
            let r = tree.node(id).range();
            for &b in &lists.p2p[id as usize] {
                let rb = tree.node(b).range();
                kernel.p2p(
                    &pos_t[r.clone()],
                    &mut pot[r.clone()],
                    &mut out[r.clone()],
                    &pos_t[rb.clone()],
                    &str_t[sd * rb.start..sd * rb.end],
                    b == id,
                );
                pairs += (r.len() * rb.len()) as u64;
            }
        }
    });
    black_box((&pot, &out));

    let per = |s: f64, count: u64| if count > 0 { s / count as f64 } else { 0.0 };
    let flops = kernel.op_flops(ops);
    KernelCosts {
        p2m_per_body: p2m_s / n,
        m2m: per(m2m_s, m2m_ops),
        m2l: per(m2l_s, m2l_ops),
        l2l: per(l2l_s, l2l_ops),
        l2p_per_body: l2p_s / n,
        p2p_per_pair: per(p2p_s, pairs),
        p2p_flops_per_pair: flops.p2p_per_pair,
        m2l_flops: flops.m2l,
    }
}

/// Visible internal non-root nodes whose children are all leaves: collapsing
/// one is exactly undone by pushing it down again.
fn twigs(tree: &Octree, k: usize) -> Vec<NodeId> {
    tree.visible_nodes()
        .into_iter()
        .filter(|&id| {
            id != Octree::ROOT
                && !tree.node(id).is_leaf()
                && tree.node(id).count() > 0
                && tree.visible_children(id).all(|c| tree.node(c).is_leaf())
        })
        .take(k)
        .collect()
}

/// Probe every layer over the engine's current tree and plan. `strength` is
/// `None` for a workload that never solves: its `fmm-math` figures stay zero.
pub fn run<K: Kernel + Copy>(
    engine: &mut FmmEngine<K>,
    pos: &[Vec3],
    strength: Option<&[f64]>,
    node: &HeteroNode,
    model: &CostModel,
    tr: &mut Tracer,
) -> Result<Probes, String> {
    let root = tr.open("probe");
    // A driver that re-bins after integrating leaves the plan one refresh
    // behind the tree; the next solve would start with exactly this call.
    engine.refresh_lists();
    let engine = &*engine;
    let tree = engine.tree();
    let lists = engine.lists();
    let params = *engine.params();
    let flops = engine.kernel.op_flops(engine.expansion_ops());
    let s = tree.s_value();
    let mut p = Probes {
        tree: TreeStats::gather(tree),
        s,
        ..Default::default()
    };

    if let Some(strength) = strength {
        p.kernels = tr.time("fmm-math.kernels", || {
            kernel_costs(
                &engine.kernel,
                engine.expansion_ops(),
                tree,
                lists,
                pos,
                strength,
            )
        });
    }

    tr.time("octree.probe", || {
        let build = || {
            let bp = BuildParams {
                s,
                max_level: params.max_level,
                pad: 1e-6,
            };
            build_adaptive_in_cube(pos, bp, tree.root_center(), tree.root_half_width())
        };
        p.build_s = median_of(3, build);
        let mut fresh = build();
        p.traverse_s = median_of(3, || dual_traversal(&fresh, params.mac));
        let mut plan = IncrementalLists::build(&fresh, params.mac);
        let edits = twigs(&fresh, PATCH_EDITS);
        let ((), patch_s) = timed(|| {
            for &id in &edits {
                plan.apply_collapse(&mut fresh, id);
            }
            for &id in &edits {
                plan.apply_push_down(&mut fresh, id);
            }
        });
        p.patch_s_per_edit = patch_s / (2 * edits.len()).max(1) as f64;
    });

    tr.time("sched-sim.probe", || {
        let graph = build_task_graph(tree, lists, &flops, node.num_online_gpus() == 0);
        let cfg = node.cpu.to_sim_config();
        p.tasks = graph.len();
        p.simulate_s = median_of(5, || sched_sim::simulate(&graph, &cfg));
        let dag_cfg = sched_sim::DagConfig::cpu_only(cfg);
        p.schedule_s = median_of(5, || sched_sim::schedule(&graph, &dag_cfg));
        let sim = sched_sim::simulate(&graph, &cfg);
        p.parallel_rate = sim.busy.iter().sum::<f64>() / sim.makespan;
    });

    if let Some(gpus) = node.gpus.as_ref() {
        tr.time("gpu-sim.probe", || -> Result<(), String> {
            let jobs = build_gpu_jobs(tree, lists);
            p.gpu_jobs = jobs.len();
            p.gpu_execute_s = median_of(5, || gpus.execute(&jobs));
            let timing = gpus.execute(&jobs).map_err(|e| e.to_string())?;
            p.gpu_efficiency = timing.efficiency().unwrap_or(0.0);
            p.gpu_imbalance = timing.imbalance().unwrap_or(0.0);
            Ok(())
        })?;
    }

    tr.time("afmm.probe", || -> Result<(), String> {
        let counts = engine.counts();
        let reps = 1000;
        let ((), predict_s) = timed(|| {
            for _ in 0..reps {
                black_box(model.predict(black_box(&counts), node));
            }
        });
        p.predict_s = predict_s / reps as f64;
        let (text, checkpoint_s) =
            timed(|| afmm::checkpoint::engine_to_json(&engine.checkpoint_state()));
        p.checkpoint_s = checkpoint_s;
        p.checkpoint_bytes = text.len();
        let (restored, restore_s) = timed(|| {
            afmm::checkpoint::engine_from_json(&text)
                .and_then(|snap| FmmEngine::restore_state(engine.kernel, snap))
        });
        p.restore_s = restore_s;
        restored
            .map(drop)
            .map_err(|e| format!("fresh checkpoint failed to restore: {e}"))
    })?;

    tr.close(root);
    Ok(p)
}
