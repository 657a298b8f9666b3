//! The dependency-driven list scheduler: critical-path (bottom-level)
//! priorities, a GPU resource lane per device, and a per-task
//! completion-time report.
//!
//! [`crate::simulate`] is the model every timed step runs: a greedy
//! scheduler that starts the lowest-id ready task. This module is the
//! data-driven executor of Ltaief & Yokota (arXiv:1203.0889) and Agullo et
//! al. (arXiv:1206.0115): the dispatcher picks the ready task with the
//! longest remaining critical path (its *bottom level*), and pre-timed GPU
//! kernels occupy their device lane concurrently with CPU tasks.
//!
//! No product path calls it since the AFMM's `Dag` execution mode was
//! removed (DESIGN.md §11): it stays because the repo benchmark's
//! `sched-sim.schedule_ms` probe times [`schedule`], and goes when that
//! probe does.
//!
//! Fully deterministic: priorities tie-break on [`TaskId`] (lowest wins),
//! so the same graph + config always produces the same schedule.

use crate::graph::{Lane, TaskGraph, TaskId};
use crate::sim::{SimConfig, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of the dependency-driven executor: the CPU side is the
/// same virtual node [`crate::simulate`] uses; `gpu_lanes` is the number of
/// device lanes available for [`Lane::Gpu`] tasks.
#[derive(Clone, Copy, Debug)]
pub struct DagConfig {
    pub cpu: SimConfig,
    pub gpu_lanes: usize,
}

impl DagConfig {
    /// A CPU-only executor (graphs with GPU tasks are rejected).
    pub fn cpu_only(cpu: SimConfig) -> Self {
        DagConfig { cpu, gpu_lanes: 0 }
    }
}

/// Outcome of one dependency-driven schedule: the pipelined makespan plus
/// per-task start and completion times.
#[derive(Clone, Debug)]
pub struct DagResult {
    /// Wall-clock seconds from first task start to last task completion,
    /// over *all* lanes (CPU cores and GPU devices together).
    pub makespan: f64,
    /// Latest CPU-task completion (0 when the graph has no CPU tasks).
    pub cpu_makespan: f64,
    /// Latest GPU-task completion (0 when the graph has no GPU tasks).
    pub gpu_makespan: f64,
    /// Busy seconds accumulated per CPU core.
    pub busy: Vec<f64>,
    /// Busy seconds accumulated per GPU lane.
    pub gpu_busy: Vec<f64>,
    /// Per-task start time, indexed by [`TaskId`].
    pub start: Vec<f64>,
    /// Per-task completion time, indexed by [`TaskId`].
    pub finish: Vec<f64>,
    /// Number of tasks executed (= graph size).
    pub tasks_executed: usize,
}

/// Per-task durations in seconds on the given config: CPU costs convert
/// through the effective core rate (memory model at `cores` active cores)
/// plus the per-task overhead; GPU costs are already seconds.
fn durations(graph: &TaskGraph, cfg: &DagConfig) -> Vec<f64> {
    let eff_rate = cfg.cpu.rate * cfg.cpu.memory.rate_factor(cfg.cpu.cores);
    graph
        .tasks
        .iter()
        .map(|t| match t.lane {
            Lane::Cpu => cfg.cpu.task_overhead + t.cost / eff_rate,
            Lane::Gpu(_) => t.cost,
        })
        .collect()
}

/// Bottom level of every task: its own duration plus the longest downward
/// chain of dependent durations — the classic critical-path-to-exit list
/// priority. Computed in one reverse pass (dependencies always precede
/// their task, so successors always follow it).
pub fn bottom_levels(graph: &TaskGraph, cfg: &DagConfig) -> Vec<f64> {
    let dur = durations(graph, cfg);
    let n = graph.tasks.len();
    // level[i] = dur[i] + max over successors s of level[s]. Dependencies
    // always precede their task, so iterating ids in reverse visits every
    // successor before the tasks it depends on.
    let mut level = dur.clone();
    for i in (0..n).rev() {
        for &d in &graph.tasks[i].deps {
            let cand = dur[d as usize] + level[i];
            if cand > level[d as usize] {
                level[d as usize] = cand;
            }
        }
    }
    level
}

/// Execute `graph` on the virtual node with dependency-driven list
/// scheduling.
///
/// * **Ready tracking** — a task enters the ready queue the instant its
///   last dependency completes; there are no phase barriers.
/// * **Priority** — ready CPU tasks dispatch highest [`bottom_levels`]
///   first; ties break on lowest [`TaskId`] (deterministic).
/// * **GPU lanes** — a [`Lane::Gpu`]`(d)` task occupies lane `d` for its
///   pre-timed duration, concurrently with whatever the cores are doing;
///   per-lane ready tasks also dispatch by bottom-level priority.
/// * **Anomaly guard** — greedy list scheduling is not monotone in its
///   priority order (Graham's anomalies: a "smarter" order can pack
///   worse), so the dispatcher also evaluates the oracle's plain
///   task-id order and keeps whichever schedule finishes first. The
///   data-driven executor therefore never loses to the barrier executor
///   on the same graph, by construction.
///
/// Panics if the graph references a GPU lane `>= cfg.gpu_lanes` — callers
/// derive both from the same device roster, so a mismatch is a bug.
pub fn schedule(graph: &TaskGraph, cfg: &DagConfig) -> DagResult {
    assert!(cfg.cpu.cores >= 1, "node must have at least one core");
    assert!(cfg.cpu.rate > 0.0, "core rate must be positive");
    assert!(
        graph.required_gpu_lanes() <= cfg.gpu_lanes,
        "graph references GPU lane {} but only {} lanes exist",
        graph.required_gpu_lanes().saturating_sub(1),
        cfg.gpu_lanes,
    );
    let by_level = run_list(graph, cfg, &bottom_levels(graph, cfg));
    // Oracle order: uniform priorities reduce the ready heaps to pure
    // lowest-TaskId dispatch — exactly `simulate`'s order on CPU tasks.
    let by_id = run_list(graph, cfg, &vec![0.0; graph.tasks.len()]);
    if by_id.makespan < by_level.makespan {
        by_id
    } else {
        by_level
    }
}

/// One deterministic list-scheduling pass under the given priorities
/// (higher dispatches first, ties prefer the smaller [`TaskId`]).
fn run_list(graph: &TaskGraph, cfg: &DagConfig, prio: &[f64]) -> DagResult {
    let n = graph.tasks.len();
    let dur = durations(graph, cfg);

    let mut indeg = vec![0u32; n];
    let mut children: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    for (i, t) in graph.tasks.iter().enumerate() {
        indeg[i] = t.deps.len() as u32;
        for &d in &t.deps {
            children[d as usize].push(i as TaskId);
        }
    }

    // Ready queues: max-heap on (bottom level, lowest id). `Reverse(id)`
    // makes equal priorities prefer the smaller TaskId.
    type ReadyHeap = BinaryHeap<(Time, Reverse<TaskId>)>;
    let mut ready_cpu: ReadyHeap = BinaryHeap::new();
    let mut ready_gpu: Vec<ReadyHeap> = vec![BinaryHeap::new(); cfg.gpu_lanes];
    let push_ready = |t: TaskId, rc: &mut ReadyHeap, rg: &mut [ReadyHeap]| {
        let key = (Time(prio[t as usize]), Reverse(t));
        match graph.tasks[t as usize].lane {
            Lane::Cpu => rc.push(key),
            Lane::Gpu(d) => rg[d as usize].push(key),
        }
    };
    for (i, &deg) in indeg.iter().enumerate() {
        if deg == 0 {
            push_ready(i as TaskId, &mut ready_cpu, &mut ready_gpu);
        }
    }

    // Resources: idle CPU cores (lowest id first) and per-device lanes.
    let mut idle_cores: BinaryHeap<Reverse<u32>> = (0..cfg.cpu.cores as u32).map(Reverse).collect();
    let mut lane_idle = vec![true; cfg.gpu_lanes];
    // Running tasks keyed by completion time; the slot id disambiguates
    // (< cores = core index, >= cores = cores + lane index).
    let mut running: BinaryHeap<Reverse<(Time, u32, TaskId)>> = BinaryHeap::new();

    let mut busy = vec![0.0f64; cfg.cpu.cores];
    let mut gpu_busy = vec![0.0f64; cfg.gpu_lanes];
    let mut start = vec![0.0f64; n];
    let mut finish = vec![0.0f64; n];
    let mut now = 0.0f64;
    let mut cpu_makespan = 0.0f64;
    let mut gpu_makespan = 0.0f64;
    let mut executed = 0usize;

    let complete = |slot: u32,
                    task: TaskId,
                    executed: &mut usize,
                    idle_cores: &mut BinaryHeap<Reverse<u32>>,
                    lane_idle: &mut [bool],
                    indeg: &mut [u32],
                    rc: &mut ReadyHeap,
                    rg: &mut [ReadyHeap]| {
        *executed += 1;
        if (slot as usize) < cfg.cpu.cores {
            idle_cores.push(Reverse(slot));
        } else {
            lane_idle[slot as usize - cfg.cpu.cores] = true;
        }
        for &c in &children[task as usize] {
            indeg[c as usize] -= 1;
            if indeg[c as usize] == 0 {
                let key = (Time(prio[c as usize]), Reverse(c));
                match graph.tasks[c as usize].lane {
                    Lane::Cpu => rc.push(key),
                    Lane::Gpu(d) => rg[d as usize].push(key),
                }
            }
        }
    };

    loop {
        // Dispatch: fill idle CPU cores by priority, and give every idle
        // GPU lane its highest-priority ready kernel.
        while !ready_cpu.is_empty() && !idle_cores.is_empty() {
            let (_, Reverse(task)) = ready_cpu.pop().unwrap();
            let Reverse(core) = idle_cores.pop().unwrap();
            let d = dur[task as usize];
            busy[core as usize] += d;
            start[task as usize] = now;
            finish[task as usize] = now + d;
            cpu_makespan = cpu_makespan.max(now + d);
            running.push(Reverse((Time(now + d), core, task)));
        }
        for lane in 0..cfg.gpu_lanes {
            if lane_idle[lane] {
                if let Some((_, Reverse(task))) = ready_gpu[lane].pop() {
                    lane_idle[lane] = false;
                    let d = dur[task as usize];
                    gpu_busy[lane] += d;
                    start[task as usize] = now;
                    finish[task as usize] = now + d;
                    gpu_makespan = gpu_makespan.max(now + d);
                    running.push(Reverse((
                        Time(now + d),
                        (cfg.cpu.cores + lane) as u32,
                        task,
                    )));
                }
            }
        }
        let Some(Reverse((Time(t), slot, task))) = running.pop() else {
            break;
        };
        now = t;
        complete(
            slot,
            task,
            &mut executed,
            &mut idle_cores,
            &mut lane_idle,
            &mut indeg,
            &mut ready_cpu,
            &mut ready_gpu,
        );
        // Drain every other completion at the same instant so their
        // successors become ready before we refill the resources.
        while let Some(&Reverse((Time(t2), _, _))) = running.peek() {
            if t2 > now {
                break;
            }
            let Reverse((_, slot2, task2)) = running.pop().unwrap();
            complete(
                slot2,
                task2,
                &mut executed,
                &mut idle_cores,
                &mut lane_idle,
                &mut indeg,
                &mut ready_cpu,
                &mut ready_gpu,
            );
        }
    }

    assert_eq!(executed, n, "all tasks must run exactly once");
    DagResult {
        makespan: cpu_makespan.max(gpu_makespan),
        cpu_makespan,
        gpu_makespan,
        busy,
        gpu_busy,
        start,
        finish,
        tasks_executed: executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::critical_path;
    use crate::sim::simulate;

    fn cpu(cores: usize) -> DagConfig {
        DagConfig::cpu_only(SimConfig::ideal(cores, 1.0))
    }

    #[test]
    fn chain_matches_barrier_executor_exactly() {
        let mut g = TaskGraph::new();
        let mut prev = None;
        for i in 0..20 {
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            prev = Some(g.add((i % 4 + 1) as f64, deps));
        }
        for cores in [1usize, 4, 16] {
            let cfg = cpu(cores);
            let dag = schedule(&g, &cfg);
            let bar = simulate(&g, &cfg.cpu);
            assert_eq!(dag.makespan, bar.makespan, "cores={cores}");
            assert_eq!(dag.tasks_executed, g.len());
        }
    }

    #[test]
    fn priority_prefers_long_chains() {
        // One long chain (5+5+5) and three short independent tasks on two
        // cores. The bottom-level dispatcher starts the chain immediately;
        // lowest-id-first would too here, so craft ids so the chain comes
        // *last* — priority must still pick it first.
        let mut g = TaskGraph::new();
        for _ in 0..3 {
            g.add(5.0, vec![]);
        }
        let a = g.add(5.0, vec![]);
        let b = g.add(5.0, vec![a]);
        g.add(5.0, vec![b]);
        let r = schedule(&g, &cpu(2));
        // Chain (15) on one core, three shorts (15) on the other: 15 total.
        assert!((r.makespan - 15.0).abs() < 1e-9, "makespan {}", r.makespan);
        // The id-order barrier executor starts the shorts first: the chain
        // then finishes at 5 + 15 = 20.
        let bar = simulate(&g, &SimConfig::ideal(2, 1.0));
        assert!((bar.makespan - 20.0).abs() < 1e-9);
    }

    #[test]
    fn ties_break_by_task_id() {
        // Four identical ready tasks, one core: execution order must be id
        // order, reflected in strictly increasing start times by id.
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            g.add(2.0, vec![]);
        }
        let r = schedule(&g, &cpu(1));
        for i in 0..4 {
            assert!((r.start[i] - 2.0 * i as f64).abs() < 1e-12);
        }
        let again = schedule(&g, &cpu(1));
        assert_eq!(r.start, again.start);
        assert_eq!(r.finish, again.finish);
    }

    #[test]
    fn completion_times_are_consistent() {
        let mut g = TaskGraph::new();
        let a = g.add(3.0, vec![]);
        let b = g.add(1.0, vec![a]);
        let c = g.add(2.0, vec![a]);
        let d = g.add(1.0, vec![b, c]);
        let r = schedule(&g, &cpu(2));
        // Starts respect dependencies, finishes are start + duration.
        for (i, t) in [(b, a), (c, a), (d, b), (d, c)] {
            assert!(r.start[i as usize] >= r.finish[t as usize] - 1e-12);
        }
        assert_eq!(r.makespan, r.finish.iter().copied().fold(0.0, f64::max));
        assert!((r.finish[d as usize] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_lane_overlaps_cpu_work() {
        // 4s of CPU work on one core, plus a 3s kernel on each of two
        // lanes: everything overlaps, makespan = max(4, 3).
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            g.add(1.0, vec![]);
        }
        g.add_gpu(0, 3.0, vec![]);
        g.add_gpu(1, 3.0, vec![]);
        let r = schedule(
            &g,
            &DagConfig {
                cpu: SimConfig::ideal(1, 1.0),
                gpu_lanes: 2,
            },
        );
        assert!((r.cpu_makespan - 4.0).abs() < 1e-9);
        assert!((r.gpu_makespan - 3.0).abs() < 1e-9);
        assert!((r.makespan - 4.0).abs() < 1e-9);
        assert_eq!(r.gpu_busy, vec![3.0, 3.0]);
    }

    #[test]
    fn gpu_lane_serializes_same_device() {
        // Two kernels pinned to the same lane run back to back even with
        // another lane idle: per-device partition is baked into the costs.
        let mut g = TaskGraph::new();
        g.add_gpu(0, 2.0, vec![]);
        g.add_gpu(0, 2.0, vec![]);
        let r = schedule(
            &g,
            &DagConfig {
                cpu: SimConfig::ideal(1, 1.0),
                gpu_lanes: 2,
            },
        );
        assert!((r.gpu_makespan - 4.0).abs() < 1e-9);
        assert_eq!(r.gpu_busy[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "GPU lane")]
    fn missing_lane_is_rejected() {
        let mut g = TaskGraph::new();
        g.add_gpu(3, 1.0, vec![]);
        schedule(&g, &DagConfig::cpu_only(SimConfig::ideal(1, 1.0)));
    }

    #[test]
    fn graham_bounds_still_hold() {
        let mut g = TaskGraph::new();
        let mut ids = Vec::new();
        for i in 0..300usize {
            let deps = if i < 4 {
                vec![]
            } else {
                vec![ids[i / 2], ids[i / 5]]
            };
            ids.push(g.add(((i * 7919) % 17 + 1) as f64, deps));
        }
        let work = g.total_work();
        let span = critical_path(&g);
        for cores in [1usize, 3, 8, 32] {
            let r = schedule(&g, &cpu(cores));
            assert!(r.makespan + 1e-9 >= span.max(work / cores as f64));
            assert!(r.makespan <= span + work / cores as f64 + 1e-9);
        }
    }

    #[test]
    fn empty_graph_is_instant() {
        let g = TaskGraph::new();
        let r = schedule(&g, &cpu(4));
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.tasks_executed, 0);
    }

    #[test]
    fn busy_conserves_work() {
        let mut g = TaskGraph::new();
        let mut ids: Vec<TaskId> = Vec::new();
        for i in 0..200usize {
            let deps = if i == 0 {
                vec![]
            } else {
                vec![ids[i * 13 % i]]
            };
            ids.push(g.add((i % 7 + 1) as f64, deps));
        }
        let r = schedule(&g, &cpu(5));
        let busy: f64 = r.busy.iter().sum();
        assert!((busy - g.total_work()).abs() < 1e-9 * g.total_work());
    }
}
