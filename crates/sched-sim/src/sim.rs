use crate::graph::{TaskGraph, TaskId};
use crate::memory::MemoryModel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of the virtual multi-core node.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of virtual cores.
    pub cores: usize,
    /// Work units (flops) per second per core when one core is active.
    pub rate: f64,
    /// Fixed per-task scheduling overhead in seconds (spawn + steal cost of
    /// the task runtime). The paper reports this is negligible for ICC's
    /// OpenMP tasking; keep it small but nonzero so pathological graphs of
    /// millions of tiny tasks are penalized realistically.
    pub task_overhead: f64,
    /// Second-order memory-system scaling effects.
    pub memory: MemoryModel,
}

impl SimConfig {
    /// A node with `cores` ideal cores at `rate` flops/s and no overhead.
    pub fn ideal(cores: usize, rate: f64) -> Self {
        SimConfig {
            cores,
            rate,
            task_overhead: 0.0,
            memory: MemoryModel::ideal(),
        }
    }
}

/// Outcome of simulating a task graph on the virtual node.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Wall-clock seconds from first task start to last task completion.
    pub makespan: f64,
    /// Busy seconds accumulated per core.
    pub busy: Vec<f64>,
    /// Number of tasks executed (= graph size).
    pub tasks_executed: usize,
}

impl SimResult {
    /// Mean core utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 || self.busy.is_empty() {
            return 0.0;
        }
        let total: f64 = self.busy.iter().sum();
        total / (self.makespan * self.busy.len() as f64)
    }
}

/// Totally ordered f64 for heap keys, shared by both event loops. All
/// simulated times are finite (task costs are validated by
/// [`TaskGraph::try_add`]).
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct Time(pub(crate) f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("simulated times are finite")
    }
}

/// Simulate a greedy list scheduler (the textbook model of a work-stealing
/// task runtime) executing `graph` on the virtual node described by `cfg`.
///
/// A task becomes *ready* when all dependencies have completed; whenever a
/// core is idle and a task is ready, the lowest-id ready task starts on the
/// lowest-id idle core. Greedy scheduling is within a factor of 2 of optimal
/// (Graham) and is what OpenMP-task / rayon runtimes approximate in practice.
///
/// Each task occupies its core for `cfg.task_overhead + cost / (rate · m(k))`
/// seconds, where `m(k)` is the [`MemoryModel`] rate factor at `cfg.cores`
/// active cores.
///
/// Fully deterministic: same graph + same config ⇒ same result.
pub fn simulate(graph: &TaskGraph, cfg: &SimConfig) -> SimResult {
    assert!(cfg.cores >= 1, "node must have at least one core");
    assert!(cfg.rate > 0.0, "core rate must be positive");
    assert!(
        graph.gpu_task_count() == 0,
        "the barrier executor is CPU-only; use sched_sim::schedule for \
         graphs with GPU-lane tasks"
    );
    let n = graph.tasks.len();
    let eff_rate = cfg.rate * cfg.memory.rate_factor(cfg.cores);

    // Dependency bookkeeping: remaining-dep counts and reverse adjacency.
    let mut indeg = vec![0u32; n];
    let mut children: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    for (i, t) in graph.tasks.iter().enumerate() {
        indeg[i] = t.deps.len() as u32;
        for &d in &t.deps {
            children[d as usize].push(i as TaskId);
        }
    }

    // Ready tasks, lowest id first.
    let mut ready: BinaryHeap<Reverse<TaskId>> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| Reverse(i as TaskId))
        .collect();

    // Idle cores (lowest id first) and busy cores keyed by completion time.
    let mut idle: BinaryHeap<Reverse<u32>> = (0..cfg.cores as u32).map(Reverse).collect();
    let mut running: BinaryHeap<Reverse<(Time, u32, TaskId)>> = BinaryHeap::new();

    let mut busy = vec![0.0f64; cfg.cores];
    let mut now = 0.0f64;
    let mut makespan = 0.0f64;
    let mut executed = 0usize;

    loop {
        // Start every ready task we have an idle core for.
        while !ready.is_empty() && !idle.is_empty() {
            let Reverse(task) = ready.pop().unwrap();
            let Reverse(core) = idle.pop().unwrap();
            let dur = cfg.task_overhead + graph.tasks[task as usize].cost / eff_rate;
            busy[core as usize] += dur;
            running.push(Reverse((Time(now + dur), core, task)));
        }
        // Nothing running: either done, or the graph had a cycle (impossible
        // by construction of TaskGraph).
        let Some(Reverse((Time(t), core, task))) = running.pop() else {
            break;
        };
        now = t;
        makespan = makespan.max(now);
        executed += 1;
        idle.push(Reverse(core));
        for &c in &children[task as usize] {
            indeg[c as usize] -= 1;
            if indeg[c as usize] == 0 {
                ready.push(Reverse(c));
            }
        }
        // Drain every other completion at the same instant so their
        // successors become ready before we refill cores.
        while let Some(&Reverse((Time(t2), _, _))) = running.peek() {
            if t2 > now {
                break;
            }
            let Reverse((_, core2, task2)) = running.pop().unwrap();
            executed += 1;
            idle.push(Reverse(core2));
            for &c in &children[task2 as usize] {
                indeg[c as usize] -= 1;
                if indeg[c as usize] == 0 {
                    ready.push(Reverse(c));
                }
            }
        }
    }

    debug_assert_eq!(executed, n, "all tasks must run exactly once");
    SimResult {
        makespan,
        busy,
        tasks_executed: executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::critical_path;

    fn chain(n: usize, cost: f64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for _ in 0..n {
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            prev = Some(g.add(cost, deps));
        }
        g
    }

    fn independent(costs: &[f64]) -> TaskGraph {
        let mut g = TaskGraph::new();
        for &c in costs {
            g.add(c, vec![]);
        }
        g
    }

    #[test]
    fn chain_is_serial_on_any_core_count() {
        let g = chain(50, 2.0);
        for cores in [1, 4, 32] {
            let r = simulate(&g, &SimConfig::ideal(cores, 1.0));
            assert!(
                (r.makespan - 100.0).abs() < 1e-9,
                "cores={cores}: {}",
                r.makespan
            );
        }
    }

    #[test]
    fn independent_tasks_divide_over_cores() {
        let g = independent(&vec![1.0; 64]);
        let r1 = simulate(&g, &SimConfig::ideal(1, 1.0));
        let r8 = simulate(&g, &SimConfig::ideal(8, 1.0));
        assert!((r1.makespan - 64.0).abs() < 1e-9);
        assert!((r8.makespan - 8.0).abs() < 1e-9);
        assert!((r8.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn graham_bounds_hold() {
        // A moderately irregular random-ish DAG (deterministic construction).
        let mut g = TaskGraph::new();
        let mut ids = Vec::new();
        for i in 0..200usize {
            let deps = if i < 3 {
                vec![]
            } else {
                vec![ids[i / 2], ids[i / 3]]
            };
            ids.push(g.add(((i * 7919) % 13 + 1) as f64, deps));
        }
        let work = g.total_work();
        let span = critical_path(&g);
        for cores in [1usize, 2, 4, 16] {
            let r = simulate(&g, &SimConfig::ideal(cores, 1.0));
            let lower = span.max(work / cores as f64);
            let upper = span + work / cores as f64;
            assert!(
                r.makespan >= lower - 1e-9,
                "cores={cores}: below lower bound"
            );
            assert!(
                r.makespan <= upper + 1e-9,
                "cores={cores}: above Graham bound"
            );
        }
    }

    #[test]
    fn rate_scales_time_inversely() {
        let g = independent(&[10.0; 16]);
        let slow = simulate(&g, &SimConfig::ideal(4, 1.0));
        let fast = simulate(&g, &SimConfig::ideal(4, 10.0));
        assert!((slow.makespan / fast.makespan - 10.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_adds_per_task() {
        let g = independent(&[1.0; 8]);
        let base = SimConfig::ideal(1, 1.0);
        let with = SimConfig {
            task_overhead: 0.5,
            ..base
        };
        let r0 = simulate(&g, &base);
        let r1 = simulate(&g, &with);
        assert!((r1.makespan - r0.makespan - 8.0 * 0.5).abs() < 1e-9);
    }

    #[test]
    fn memory_model_slows_wide_runs() {
        let g = independent(&vec![1.0; 128]);
        let ideal = simulate(&g, &SimConfig::ideal(32, 1.0));
        let real = simulate(
            &g,
            &SimConfig {
                cores: 32,
                rate: 1.0,
                task_overhead: 0.0,
                memory: MemoryModel::nehalem_ex(),
            },
        );
        assert!(
            real.makespan > ideal.makespan,
            "saturation must slow 32-core runs"
        );
    }

    #[test]
    fn deterministic() {
        let mut g = TaskGraph::new();
        let mut ids: Vec<TaskId> = Vec::new();
        for i in 0..500usize {
            let deps = if i == 0 {
                vec![]
            } else {
                vec![ids[i * 31 % i]]
            };
            ids.push(g.add((i % 5 + 1) as f64, deps));
        }
        let cfg = SimConfig::ideal(6, 3.0);
        let a = simulate(&g, &cfg);
        let b = simulate(&g, &cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.busy, b.busy);
    }

    #[test]
    fn empty_graph_is_instant() {
        let g = TaskGraph::new();
        let r = simulate(&g, &SimConfig::ideal(4, 1.0));
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.tasks_executed, 0);
        assert_eq!(r.utilization(), 0.0);
    }

    #[test]
    fn fork_join_uses_parallelism() {
        // root -> 16 parallel children -> join
        let mut g = TaskGraph::new();
        let root = g.add(1.0, vec![]);
        let kids: Vec<_> = (0..16).map(|_| g.add(4.0, vec![root])).collect();
        g.add(1.0, kids.clone());
        let r1 = simulate(&g, &SimConfig::ideal(1, 1.0));
        let r4 = simulate(&g, &SimConfig::ideal(4, 1.0));
        let r16 = simulate(&g, &SimConfig::ideal(16, 1.0));
        assert!((r1.makespan - (1.0 + 64.0 + 1.0)).abs() < 1e-9);
        assert!((r4.makespan - (1.0 + 16.0 + 1.0)).abs() < 1e-9);
        assert!((r16.makespan - (1.0 + 4.0 + 1.0)).abs() < 1e-9);
    }
}
