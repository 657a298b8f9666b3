//! Structural introspection snapshots: *why* did a perf number move?
//!
//! A bare timing delta between two reports is unattributable — did the
//! solve get slower because the code regressed, or because the tree came
//! out one level deeper and M2L list lengths doubled? Each scenario result
//! therefore embeds a snapshot of the structures that determine its cost:
//!
//! * **tree** — per-level node/leaf/body counts and a power-of-two leaf
//!   occupancy histogram from `octree` ([`TreeStats`] plus level walks);
//! * **plan** — the [`OpCounts`] totals and the M2L/P2P interaction-list
//!   length distributions the execution plan will run;
//! * **gpu** — per-device interaction share and makespan imbalance from
//!   [`gpu_sim::KernelTiming`] (the quantity the paper's partitioner
//!   balances);
//! * **cost_model** — the current observational coefficient table from
//!   [`afmm::CostModel`], so coefficient drift between baselines is visible;
//! * **allocator** — the counting allocator's per-scope table and process
//!   totals ([`telemetry::memprof::scopes`], [`telemetry::memprof::global`]);
//!   present only when that allocator is installed (`memprof` builds);
//! * **mem** — the structural heap footprint ([`MemFootprint`]): absolute
//!   bytes per owner plus the normalized bytes-per-body / bytes-per-node /
//!   bytes-per-list-entry figures. Structural accounting works with or
//!   without the `memprof` allocator feature.

use super::stats::median;
use afmm::CostModel;
use gpu_sim::KernelTiming;
use octree::{InteractionLists, Octree, OpCounts, TreeStats};
use telemetry::json::{obj, Json};
use telemetry::{GlobalStats, ScopeStats};

/// Everything a scenario can attach; absent parts are simply omitted from
/// the snapshot object.
#[derive(Default)]
pub struct SnapshotParts<'a> {
    pub tree: Option<&'a Octree>,
    pub lists: Option<&'a InteractionLists>,
    pub counts: Option<OpCounts>,
    pub cost: Option<&'a CostModel>,
    pub timing: Option<&'a KernelTiming>,
    /// Process totals and per-scope table of the counting allocator.
    pub allocator: Option<(GlobalStats, Vec<(&'static str, ScopeStats)>)>,
    /// Cost-model prediction audit summary
    /// ([`telemetry::AuditTrail::stats`]) from a tracked run — the realized
    /// predict-vs-observe error.
    pub audit: Option<telemetry::AuditStats>,
    /// Structural heap footprint of the scenario's live structures.
    pub mem: Option<MemFootprint>,
}

/// Structural heap-footprint accounting, assembled by a scenario from the
/// `heap_bytes()` methods on [`nbody::Bodies`], [`Octree`],
/// [`afmm::ExecutionPlan`] / engine scratch, and the telemetry recorder's
/// ring buffer. Byte figures are capacity-granular (reserved headroom is
/// real memory); the divisor counts normalize them into the per-body /
/// per-node / per-list-entry densities a size change is judged by.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemFootprint {
    pub bodies_bytes: usize,
    pub tree_bytes: usize,
    /// Plan lists + caches + engine solve scratch.
    pub plan_bytes: usize,
    /// Telemetry recorder ring buffer ([`telemetry::Recorder::heap_bytes`]).
    pub recorder_bytes: usize,
    /// Body count (divisor for bytes-per-body).
    pub bodies: usize,
    /// Allocated node count (divisor for bytes-per-node).
    pub nodes: usize,
    /// Total M2L + P2P list entries (divisor for bytes-per-list-entry).
    pub list_entries: usize,
}

impl MemFootprint {
    pub fn total_bytes(&self) -> usize {
        self.bodies_bytes + self.tree_bytes + self.plan_bytes + self.recorder_bytes
    }
}

/// Assemble the snapshot object from whichever parts the scenario has.
pub fn gather(parts: &SnapshotParts<'_>) -> Json {
    let mut fields: Vec<(&str, Json)> = Vec::new();
    if let Some(tree) = parts.tree {
        fields.push(("tree", tree_snapshot(tree)));
    }
    if let (Some(tree), Some(lists)) = (parts.tree, parts.lists) {
        fields.push(("plan", plan_snapshot(tree, lists, parts.counts)));
    }
    if let Some(timing) = parts.timing {
        fields.push(("gpu", gpu_snapshot(timing)));
    }
    if let Some(cost) = parts.cost {
        fields.push(("cost_model", cost_snapshot(cost)));
    }
    if let Some(audit) = &parts.audit {
        fields.push(("audit", audit_snapshot(audit)));
    }
    if let Some(mem) = &parts.mem {
        fields.push(("mem", mem_snapshot(mem)));
    }
    if let Some((global, scopes)) = &parts.allocator {
        fields.push(("allocator", allocator_snapshot(global, scopes)));
    }
    obj(fields)
}

/// Per-level counts plus a power-of-two leaf-occupancy histogram.
fn tree_snapshot(tree: &Octree) -> Json {
    let st = TreeStats::gather(tree);
    let mut levels: Vec<Json> = Vec::new();
    for (level, ids) in tree.levels().iter().enumerate() {
        if ids.is_empty() {
            continue;
        }
        let leaves = ids.iter().filter(|&&id| tree.node(id).is_leaf()).count();
        let bodies: usize = ids
            .iter()
            .filter(|&&id| tree.node(id).is_leaf())
            .map(|&id| tree.node(id).count())
            .sum();
        levels.push(obj(vec![
            ("level", Json::F64(level as f64)),
            ("nodes", Json::F64(ids.len() as f64)),
            ("leaves", Json::F64(leaves as f64)),
            ("bodies", Json::F64(bodies as f64)),
        ]));
    }

    // Occupancy histogram: bucket 0 holds empty leaves, bucket k>0 holds
    // counts in [2^(k-1), 2^k).
    let occupancies: Vec<usize> = tree
        .visible_leaves()
        .into_iter()
        .map(|id| tree.node(id).count())
        .collect();
    let max_bucket = occupancies
        .iter()
        .map(|&c| if c == 0 { 0 } else { c.ilog2() as usize + 1 })
        .max()
        .unwrap_or(0);
    let mut hist = vec![0usize; max_bucket + 1];
    for &c in &occupancies {
        let b = if c == 0 { 0 } else { c.ilog2() as usize + 1 };
        hist[b] += 1;
    }
    let hist_json: Vec<Json> = hist
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(b, &n)| {
            let (lo, hi) = if b == 0 {
                (0, 0)
            } else {
                (1 << (b - 1), (1 << b) - 1)
            };
            obj(vec![
                ("lo", Json::F64(lo as f64)),
                ("hi", Json::F64(hi as f64)),
                ("leaves", Json::F64(n as f64)),
            ])
        })
        .collect();

    obj(vec![
        ("s", Json::F64(tree.s_value() as f64)),
        ("bodies", Json::F64(tree.num_bodies() as f64)),
        ("visible_nodes", Json::F64(st.visible_nodes as f64)),
        ("visible_leaves", Json::F64(st.visible_leaves as f64)),
        ("nonempty_leaves", Json::F64(st.nonempty_leaves as f64)),
        ("depth", Json::F64(st.depth as f64)),
        ("max_leaf", Json::F64(st.max_leaf as f64)),
        ("mean_leaf", Json::F64(st.mean_leaf)),
        ("levels", Json::Arr(levels)),
        ("leaf_occupancy", Json::Arr(hist_json)),
    ])
}

/// Min/median/p90/max of a length distribution.
fn length_dist(lens: &[usize]) -> Json {
    if lens.is_empty() {
        return obj(vec![("count", Json::F64(0.0))]);
    }
    let mut sorted: Vec<f64> = lens.iter().map(|&l| l as f64).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p90 = sorted[((0.90 * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)];
    obj(vec![
        ("count", Json::F64(sorted.len() as f64)),
        ("total", Json::F64(sorted.iter().sum::<f64>())),
        ("min", Json::F64(sorted[0])),
        ("median", Json::F64(median(&sorted))),
        ("p90", Json::F64(p90)),
        ("max", Json::F64(*sorted.last().expect("nonempty"))),
    ])
}

/// Interaction-list shape plus the op-count totals the cost model prices.
fn plan_snapshot(tree: &Octree, lists: &InteractionLists, counts: Option<OpCounts>) -> Json {
    let visible = tree.visible_nodes();
    let m2l_lens: Vec<usize> = visible
        .iter()
        .map(|&id| lists.m2l[id as usize].len())
        .filter(|&l| l > 0)
        .collect();
    let p2p_lens: Vec<usize> = tree
        .active_leaves()
        .into_iter()
        .map(|id| lists.p2p[id as usize].len())
        .filter(|&l| l > 0)
        .collect();
    let counts = counts.unwrap_or_else(|| octree::count_ops(tree, lists));
    obj(vec![
        (
            "op_counts",
            obj(vec![
                ("p2m_bodies", Json::F64(counts.p2m_bodies as f64)),
                ("m2m_ops", Json::F64(counts.m2m_ops as f64)),
                ("m2l_ops", Json::F64(counts.m2l_ops as f64)),
                ("l2l_ops", Json::F64(counts.l2l_ops as f64)),
                ("l2p_bodies", Json::F64(counts.l2p_bodies as f64)),
                (
                    "p2p_interactions",
                    Json::F64(counts.p2p_interactions as f64),
                ),
                ("active_nodes", Json::F64(counts.active_nodes as f64)),
            ]),
        ),
        ("m2l_list_len", length_dist(&m2l_lens)),
        ("p2p_list_len", length_dist(&p2p_lens)),
    ])
}

/// Per-device interaction share and the makespan imbalance of one launch.
fn gpu_snapshot(timing: &KernelTiming) -> Json {
    let total: u64 = timing.total_pairs();
    let shares: Vec<Json> = timing
        .per_gpu
        .iter()
        .enumerate()
        .map(|(device, r)| {
            let share = if total > 0 {
                r.useful_pairs as f64 / total as f64
            } else {
                0.0
            };
            obj(vec![
                ("device", Json::F64(device as f64)),
                ("pairs", Json::F64(r.useful_pairs as f64)),
                ("share", Json::F64(share)),
                ("elapsed_s", Json::F64(r.elapsed_s)),
            ])
        })
        .collect();
    obj(vec![
        ("devices", Json::F64(timing.per_gpu.len() as f64)),
        ("total_pairs", Json::F64(total as f64)),
        (
            "makespan_s",
            timing.gpu_time().map(Json::F64).unwrap_or(Json::Null),
        ),
        (
            "imbalance",
            timing.imbalance().map(Json::F64).unwrap_or(Json::Null),
        ),
        (
            "efficiency",
            timing.efficiency().map(Json::F64).unwrap_or(Json::Null),
        ),
        ("interaction_share", Json::Arr(shares)),
    ])
}

/// Prediction-audit summary: how far the cost model's `predict` calls were
/// from the observed step times over the run.
fn audit_snapshot(a: &telemetry::AuditStats) -> Json {
    obj(vec![
        ("count", Json::F64(a.count as f64)),
        ("acted", Json::F64(a.acted as f64)),
        ("mean", Json::F64(a.mean)),
        ("median", Json::F64(a.median)),
        ("p90", Json::F64(a.p90)),
        ("max", Json::F64(a.max)),
    ])
}

/// Absolute bytes per owner plus the normalized densities. Ratios divide
/// by zero-safe denominators (`Null` when the divisor is zero).
fn mem_snapshot(mem: &MemFootprint) -> Json {
    let ratio = |bytes: usize, div: usize| {
        if div == 0 {
            Json::Null
        } else {
            Json::F64(bytes as f64 / div as f64)
        }
    };
    obj(vec![
        ("bodies_bytes", Json::F64(mem.bodies_bytes as f64)),
        ("tree_bytes", Json::F64(mem.tree_bytes as f64)),
        ("plan_bytes", Json::F64(mem.plan_bytes as f64)),
        ("recorder_bytes", Json::F64(mem.recorder_bytes as f64)),
        ("total_bytes", Json::F64(mem.total_bytes() as f64)),
        ("bytes_per_body", ratio(mem.bodies_bytes, mem.bodies)),
        ("bytes_per_node", ratio(mem.tree_bytes, mem.nodes)),
        (
            "bytes_per_list_entry",
            ratio(mem.plan_bytes, mem.list_entries),
        ),
    ])
}

/// `{"global": {...}, "scopes": {name: {...}}}`: allocation counts, bytes
/// and peak live bytes per scope and for the whole process.
fn allocator_snapshot(global: &GlobalStats, scopes: &[(&'static str, ScopeStats)]) -> Json {
    let n = |v: u64| Json::F64(v as f64);
    let scopes = scopes
        .iter()
        .map(|(name, s)| {
            let row = obj(vec![
                ("allocs", n(s.allocs)),
                ("alloc_bytes", n(s.alloc_bytes)),
                ("peak_live_bytes", n(s.peak_live_bytes)),
            ]);
            (name.to_string(), row)
        })
        .collect();
    obj(vec![
        (
            "global",
            obj(vec![
                ("allocs", n(global.allocs)),
                ("alloc_bytes", n(global.alloc_bytes)),
                ("live_bytes", n(global.live_bytes)),
                ("peak_live_bytes", n(global.peak_live_bytes)),
            ]),
        ),
        ("scopes", Json::Obj(scopes)),
    ])
}

/// The observational coefficient table (paper §IV.D).
fn cost_snapshot(cost: &CostModel) -> Json {
    obj(vec![
        ("observed", Json::Bool(cost.is_observed())),
        ("c_p2m", Json::F64(cost.c_p2m)),
        ("c_m2m", Json::F64(cost.c_m2m)),
        ("c_m2l", Json::F64(cost.c_m2l)),
        ("c_l2l", Json::F64(cost.c_l2l)),
        ("c_l2p", Json::F64(cost.c_l2p)),
        ("c_cpu_pair", Json::F64(cost.c_cpu_pair)),
        ("c_node", Json::F64(cost.c_node)),
        ("c_gpu_pair", Json::F64(cost.c_gpu_pair)),
        ("parallel_rate", Json::F64(cost.parallel_rate)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use octree::{build_adaptive, dual_traversal, BuildParams, Mac};

    fn small_tree() -> (Octree, InteractionLists) {
        let b = nbody::plummer(2000, 1.0, 1.0, 5);
        let tree = build_adaptive(&b.pos, BuildParams::with_s(32));
        let lists = dual_traversal(&tree, Mac::default());
        (tree, lists)
    }

    #[test]
    fn snapshot_contains_all_requested_parts() {
        let (tree, lists) = small_tree();
        let node = afmm::HeteroNode::system_a(4, 2);
        let counts = octree::count_ops(&tree, &lists);
        let flops = crate::default_flops(&fmm_math::GravityKernel::default());
        let timing = afmm::time_step(&tree, &lists, &flops, &node).unwrap();
        let mut cost = CostModel::new();
        cost.observe(&counts, &timing, &flops, &node);

        let snap = gather(&SnapshotParts {
            tree: Some(&tree),
            lists: Some(&lists),
            counts: Some(counts),
            cost: Some(&cost),
            timing: timing.gpu.as_ref(),
            allocator: Some((
                GlobalStats {
                    allocs: 12,
                    live_bytes: 1024,
                    ..Default::default()
                },
                vec![(
                    "rebin",
                    ScopeStats {
                        allocs: 3,
                        alloc_bytes: 4096,
                        ..Default::default()
                    },
                )],
            )),
            audit: Some(telemetry::AuditStats {
                count: 8,
                acted: 3,
                mean: 0.07,
                median: 0.05,
                p90: 0.12,
                max: 0.2,
            }),
            mem: Some(MemFootprint {
                bodies_bytes: 2000 * 56,
                tree_bytes: tree.heap_bytes(),
                plan_bytes: lists.heap_bytes(),
                recorder_bytes: 0,
                bodies: 2000,
                nodes: tree.num_nodes(),
                list_entries: lists.num_m2l() + lists.num_p2p_pairs(),
            }),
        });

        let t = snap.get("tree").expect("tree part");
        assert_eq!(t.get("bodies").unwrap().as_f64(), Some(2000.0));
        assert!(!t.get("levels").unwrap().as_arr().unwrap().is_empty());
        assert!(!t
            .get("leaf_occupancy")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());

        let p = snap.get("plan").expect("plan part");
        assert_eq!(
            p.get("op_counts")
                .unwrap()
                .get("p2m_bodies")
                .unwrap()
                .as_f64(),
            Some(2000.0)
        );
        assert!(p.get("m2l_list_len").unwrap().get("max").unwrap().as_f64() > Some(0.0));

        let g = snap.get("gpu").expect("gpu part");
        assert_eq!(g.get("devices").unwrap().as_f64(), Some(2.0));
        let shares = g.get("interaction_share").unwrap().as_arr().unwrap();
        let total: f64 = shares
            .iter()
            .map(|s| s.get("share").unwrap().as_f64().unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to 1, got {total}");

        let c = snap.get("cost_model").expect("cost part");
        assert_eq!(c.get("observed").unwrap().as_bool(), Some(true));
        assert!(c.get("c_m2l").unwrap().as_f64().unwrap() > 0.0);

        let a = snap.get("audit").expect("audit part");
        assert_eq!(a.get("count").unwrap().as_f64(), Some(8.0));
        assert_eq!(a.get("p90").unwrap().as_f64(), Some(0.12));

        let mem = snap.get("mem").expect("mem part");
        assert_eq!(
            mem.get("bytes_per_body").unwrap().as_f64(),
            Some(56.0),
            "2000 bodies at 56 bytes each"
        );
        assert!(mem.get("bytes_per_node").unwrap().as_f64().unwrap() > 0.0);
        assert!(mem.get("bytes_per_list_entry").unwrap().as_f64().unwrap() > 0.0);
        let total = mem.get("total_bytes").unwrap().as_f64().unwrap();
        assert_eq!(
            total,
            (2000.0 * 56.0)
                + mem.get("tree_bytes").unwrap().as_f64().unwrap()
                + mem.get("plan_bytes").unwrap().as_f64().unwrap()
        );

        let alloc = snap.get("allocator").expect("allocator part");
        let global = alloc.get("global").unwrap();
        assert_eq!(global.get("allocs").unwrap().as_f64(), Some(12.0));
        assert_eq!(global.get("live_bytes").unwrap().as_f64(), Some(1024.0));
        let rebin = alloc.get("scopes").unwrap().get("rebin").unwrap();
        assert_eq!(rebin.get("alloc_bytes").unwrap().as_f64(), Some(4096.0));

        // The whole snapshot is valid JSON.
        assert!(Json::parse(&snap.to_json()).is_ok());
    }

    #[test]
    fn absent_parts_are_omitted() {
        let snap = gather(&SnapshotParts::default());
        assert_eq!(snap, Json::Obj(Vec::new()));
        let (tree, _) = small_tree();
        let snap = gather(&SnapshotParts {
            tree: Some(&tree),
            ..Default::default()
        });
        assert!(snap.get("tree").is_some());
        assert!(snap.get("plan").is_none());
        assert!(snap.get("gpu").is_none());
    }

    #[test]
    fn length_dist_handles_empty() {
        let d = length_dist(&[]);
        assert_eq!(d.get("count").unwrap().as_f64(), Some(0.0));
        assert!(d.get("median").is_none());
    }
}
