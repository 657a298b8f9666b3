use crate::config::{FmmParams, HeteroNode};
use crate::exec::{ExecPolicy, TimingReport};
use fmm_math::{
    BodyTile, ExpansionOps, FieldTile, Kernel, M2lScratch, M2lSource, OpFlops, SplitTile, M2L_LANES,
};
use geom::Vec3;
use octree::{
    build_adaptive, build_adaptive_in_cube, BuildParams, EnforceOutcome, IncrementalLists,
    InteractionLists, NodeId, Octree, OpCounts, PlanRefresh, NONE,
};
use rayon::prelude::*;

/// What [`FmmEngine::lists`] hands out before any plan exists.
static EMPTY_LISTS: InteractionLists = InteractionLists {
    m2l: Vec::new(),
    p2p: Vec::new(),
};

/// How far the engine's plan is behind its tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PlanState {
    /// No plan, or the tree may have changed behind its back
    /// ([`FmmEngine::tree_mut`], [`FmmEngine::rebuild`]): the next refresh
    /// rebuilds it instead of trusting its incremental state.
    Stale,
    /// The plan describes the tree.
    Live,
    /// Bodies were re-binned since the plan last reconciled its per-node
    /// counts ([`FmmEngine::rebin`]). Its lists and populations describe the
    /// bodies before the rebin by design until [`FmmEngine::refresh_plan`]
    /// patches them, which [`FmmEngine::audit_plan`] must not mistake for
    /// rot.
    Rebinned,
}

/// Result of one FMM solve, in **original body order**: a potential-like
/// scalar and a vector field per body (acceleration for gravity, velocity
/// for Stokes flow; G / 1/(8πμ) prefactors are the kernel's business).
#[derive(Clone, Debug)]
pub struct FmmSolution {
    pub pot: Vec<f64>,
    pub field: Vec<Vec3>,
}

/// The solve's input bodies — positions and strength channels — as flat
/// structure-of-arrays lanes in **tree order** (index i = tree-order
/// position i), gathered once per solve. Leaf body ranges are contiguous in
/// tree order, so a leaf's tile is a plain sub-slice of every lane.
#[derive(Default)]
struct BodyBuffers {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    /// Channel-major strengths: channel `c` of tree position `i` at
    /// `strength[c * n + i]`.
    strength: Vec<f64>,
}

impl BodyBuffers {
    /// Gather the caller's AoS bodies (`sd` strengths each) into tree order.
    fn gather(&mut self, order: &[u32], pos: &[Vec3], strength: &[f64], sd: usize) {
        for lane in [&mut self.x, &mut self.y, &mut self.z] {
            lane.clear();
            // Exactly n: amortized push growth would round the lanes up to a
            // power of two and grow the body buffers past their AoS size.
            lane.reserve_exact(order.len());
        }
        for &b in order {
            let p = pos[b as usize];
            self.x.push(p.x);
            self.y.push(p.y);
            self.z.push(p.z);
        }
        self.strength.clear();
        for c in 0..sd {
            self.strength
                .extend(order.iter().map(|&b| strength[sd * b as usize + c]));
        }
    }

    /// The bodies at tree positions `r` (one leaf's range) as a tile.
    fn tile(&self, r: std::ops::Range<usize>) -> BodyTile<'_> {
        // Strength window from the first channel's `r.start` to the last
        // channel's `r.end`; stride `n` steps from one channel to the next.
        let n = self.x.len();
        let last = self.strength.len() - n;
        BodyTile::new(
            &self.x[r.clone()],
            &self.y[r.clone()],
            &self.z[r.clone()],
            &self.strength[r.start..last + r.end],
            n,
        )
    }

    fn heap_bytes(&self) -> usize {
        let lanes = [&self.x, &self.y, &self.z, &self.strength];
        lanes.iter().map(|l| l.capacity()).sum::<usize>() * std::mem::size_of::<f64>()
    }
}

/// The solve's per-body outputs, tree-ordered SoA lanes like
/// [`BodyBuffers`]: the operators accumulate straight into leaf windows of
/// these.
#[derive(Default)]
struct FieldBuffers {
    pot: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl FieldBuffers {
    fn reset(&mut self, n: usize) {
        for lane in [&mut self.pot, &mut self.x, &mut self.y, &mut self.z] {
            lane.clear();
            lane.resize(n, 0.0);
        }
    }

    fn tile(&mut self) -> FieldTile<'_> {
        FieldTile::new(&mut self.pot, &mut self.x, &mut self.y, &mut self.z)
    }

    fn heap_bytes(&self) -> usize {
        let lanes = [&self.pot, &self.x, &self.y, &self.z];
        lanes.iter().map(|l| l.capacity()).sum::<usize>() * std::mem::size_of::<f64>()
    }
}

/// The adaptive-FMM engine: owns the spatial decomposition and all expansion
/// storage, and runs the paper's six operations (P2M, M2M, M2L, L2L, L2P,
/// P2P) over it.
///
/// The engine separates *physics* from *clock*: [`FmmEngine::solve`]
/// computes exact (to expansion order) interactions on the host's cores —
/// one fork-join per level per sweep and one for the near field, through
/// rayon's `par_*` API — while the `exec` module derives the virtual
/// heterogeneous-node times for the same tree + interaction lists. The
/// numbers the load balancer reacts to come from the latter; the solution's
/// bits do not depend on how many workers computed it.
///
/// Far-field execution is level-synchronous: each level's nodes are
/// processed in parallel (disjoint writes), levels deep→shallow for the
/// upsweep and shallow→deep for the downsweep. This is numerically identical
/// to the paper's recursive task version; the *task-DAG shape* of the
/// recursive version (which determines parallel makespan) is what the
/// virtual executor models.
pub struct FmmEngine<K: Kernel> {
    pub kernel: K,
    params: FmmParams,
    ops: ExpansionOps,
    tree: Octree,
    /// Fixed simulation cube, if the workload pins one.
    domain: Option<(Vec3, f64)>,
    bodies: BodyBuffers,
    field: FieldBuffers,
    // Expansion storage, node-major: node id × channel × coefficient.
    multipoles: Vec<f64>,
    /// The multipoles as the far field reads them, node-major: node id ×
    /// channel × core coefficient, in `f32` ([`ExpansionOps::source_form`]).
    forms: Vec<f32>,
    locals: Vec<f64>,
    /// The expansions of the level a sweep is building (level width ×
    /// stride, node-major): a level reads the arena it writes into, so it is
    /// built here and then copied over. Sized to the widest level.
    level_scratch: Vec<f64>,
    /// The persistent plan: interaction lists and op counts, built lazily
    /// and *patched* across the engine's tree edits
    /// ([`FmmEngine::apply_collapse`], [`FmmEngine::enforce_s`], ...).
    plan: Option<IncrementalLists>,
    /// Whether `plan` can be trusted as it stands.
    pub(crate) plan_state: PlanState,
    /// Telemetry handle for the solve-phase spans; disabled by default.
    rec: telemetry::Recorder,
    /// Which device [`FmmEngine::time_step`] charges P2M/L2P to (the CPU by
    /// default). Caller configuration like the node: checkpoints do not
    /// carry it, so whoever restores an engine re-applies it. Physics
    /// ([`FmmEngine::solve`]) never consults this — forces are identical
    /// under every policy.
    exec_policy: ExecPolicy,
}

impl<K: Kernel> FmmEngine<K> {
    /// Build an engine whose root cube is fitted to the initial positions.
    ///
    /// Panics, as every constructor does, when `params.order` is above
    /// [`fmm_math::MAX_ORDER`] (restoring a checkpoint refuses it with an
    /// error instead).
    pub fn new(kernel: K, params: FmmParams, pos: &[Vec3], s: usize) -> Self {
        let tree = build_adaptive(pos, Self::build_params(&params, s));
        Self::from_tree(kernel, params, tree, None)
    }

    /// Build an engine with a **fixed** simulation cube (the paper's
    /// time-dependent setups): rebuilds keep the same root cube.
    pub fn with_domain(
        kernel: K,
        params: FmmParams,
        pos: &[Vec3],
        s: usize,
        center: Vec3,
        half_width: f64,
    ) -> Self {
        let tree = build_adaptive_in_cube(pos, Self::build_params(&params, s), center, half_width);
        Self::from_tree(kernel, params, tree, Some((center, half_width)))
    }

    /// Build an engine over the classic **uniform** fixed-depth
    /// decomposition (the original FMM the paper contrasts against). All
    /// solver machinery is decomposition-agnostic, so this engine computes
    /// identical physics — it just cannot adapt its leaves.
    pub fn new_uniform(kernel: K, params: FmmParams, pos: &[Vec3], depth: u16) -> Self {
        let tree = octree::build_uniform(pos, depth, 1e-6);
        Self::from_tree(kernel, params, tree, None)
    }

    fn build_params(params: &FmmParams, s: usize) -> BuildParams {
        BuildParams {
            s,
            max_level: params.max_level,
            pad: 1e-6,
        }
    }

    fn from_tree(kernel: K, params: FmmParams, tree: Octree, domain: Option<(Vec3, f64)>) -> Self {
        let ops = ExpansionOps::new(params.order);
        FmmEngine {
            kernel,
            params,
            ops,
            tree,
            domain,
            bodies: BodyBuffers::default(),
            field: FieldBuffers::default(),
            multipoles: Vec::new(),
            forms: Vec::new(),
            locals: Vec::new(),
            level_scratch: Vec::new(),
            plan: None,
            plan_state: PlanState::Stale,
            rec: telemetry::Recorder::disabled(),
            exec_policy: ExecPolicy::default(),
        }
    }

    /// Set the execution policy [`FmmEngine::time_step`] times under.
    pub fn set_exec_policy(&mut self, policy: ExecPolicy) {
        self.exec_policy = policy;
    }

    /// The engine's current execution policy.
    pub fn exec_policy(&self) -> ExecPolicy {
        self.exec_policy
    }

    /// Attach a telemetry recorder; solve-phase wall spans are emitted
    /// through it.
    pub fn set_recorder(&mut self, rec: telemetry::Recorder) {
        self.rec = rec;
    }

    /// The engine's telemetry handle (disabled unless
    /// [`FmmEngine::set_recorder`] installed one).
    pub fn recorder(&self) -> &telemetry::Recorder {
        &self.rec
    }

    pub fn params(&self) -> &FmmParams {
        &self.params
    }

    pub fn expansion_ops(&self) -> &ExpansionOps {
        &self.ops
    }

    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// Raw mutable tree access. Any edit made through this handle happens
    /// behind the plan's back, so it marks the plan stale (next refresh is a
    /// full rebuild). Prefer [`FmmEngine::apply_collapse`] /
    /// [`FmmEngine::apply_push_down`] / [`FmmEngine::enforce_s`], which keep
    /// the plan alive by patching it.
    pub fn tree_mut(&mut self) -> &mut Octree {
        self.plan_state = PlanState::Stale;
        &mut self.tree
    }

    /// Interaction lists of the current plan (most recent
    /// [`FmmEngine::solve`] / [`FmmEngine::refresh_lists`]).
    pub fn lists(&self) -> &InteractionLists {
        match &self.plan {
            Some(p) => p.lists(),
            None => &EMPTY_LISTS,
        }
    }

    /// Operation counts of the current plan.
    pub fn counts(&self) -> OpCounts {
        self.plan
            .as_ref()
            .map(IncrementalLists::counts)
            .unwrap_or_default()
    }

    /// Is there a plan whose incremental state is trusted (no untracked
    /// tree edits since it was built)?
    pub(crate) fn has_live_plan(&self) -> bool {
        self.plan_state != PlanState::Stale
    }

    /// The plan, unless it is stale.
    fn live_plan(&self) -> Option<&IncrementalLists> {
        self.plan.as_ref().filter(|_| self.has_live_plan())
    }

    /// Rebuild the decomposition at leaf capacity `s` for the bodies at
    /// `pos`. In a fixed cube this re-bins them and re-splits the sorted
    /// codes at `s` ([`Octree::resplit`]): the tree a full build gives, node
    /// for node, without sorting again or holding a second tree. An engine
    /// that fits its cube to the bodies builds afresh in the fitted cube.
    pub fn rebuild(&mut self, pos: &[Vec3], s: usize) {
        match self.domain {
            Some(_) if pos.len() == self.tree.num_bodies() => {
                self.tree.rebin(pos);
                self.tree.resplit(s);
                self.plan_state = PlanState::Stale;
            }
            _ => self.build_fresh(pos, s),
        }
    }

    /// Build the decomposition from scratch at leaf capacity `s`, trusting
    /// nothing of the tree it replaces.
    pub(crate) fn build_fresh(&mut self, pos: &[Vec3], s: usize) {
        let bp = Self::build_params(&self.params, s);
        self.tree = match self.domain {
            Some((c, hw)) => build_adaptive_in_cube(pos, bp, c, hw),
            None => build_adaptive(pos, bp),
        };
        self.plan_state = PlanState::Stale;
    }

    /// Re-sort moved bodies into the unchanged tree structure. The plan
    /// stays alive: leaf populations moved but the traversal structure did
    /// not, so the next refresh patches counts instead of re-traversing.
    pub fn rebin(&mut self, pos: &[Vec3]) {
        self.tree.rebin(pos);
        if self.plan_state == PlanState::Live {
            self.plan_state = PlanState::Rebinned;
        }
    }

    /// Change the leaf capacity the *current* tree enforces, without
    /// rebuilding ([`FmmEngine::enforce_s`] then restores the invariant by
    /// local edits).
    pub fn set_s(&mut self, s: usize) {
        self.tree.set_s_value(s);
    }

    /// The plan and the tree it describes, for a tree edit to go through.
    /// Edits never invalidate the plan: a stale or absent one is brought up
    /// first — the traversal the next solve would have paid — and then
    /// patched like a live one. So is one a rebin left behind the tree: a
    /// patch walks the tree as it stands, while the plan's lists and keys
    /// still describe the bodies before the rebin — the refresh patches
    /// them through every cell the rebin emptied or filled first. The
    /// boolean reports whether the plan was live on entry.
    fn plan_for_edit(&mut self) -> (&mut IncrementalLists, &mut Octree, bool) {
        let live = self.has_live_plan();
        if self.plan_state != PlanState::Live {
            self.refresh_plan();
        }
        let plan = self.plan.as_mut().expect("plan refreshed above");
        (plan, &mut self.tree, live)
    }

    /// Collapse node `id`, patching the plan through the edit. Returns
    /// false when the collapse is a no-op.
    pub fn apply_collapse(&mut self, id: NodeId) -> bool {
        let (plan, tree, _) = self.plan_for_edit();
        plan.apply_collapse(tree, id)
    }

    /// Push down node `id`, patching the plan through the edit. Returns
    /// false when the push-down is refused.
    pub fn apply_push_down(&mut self, id: NodeId) -> bool {
        let (plan, tree, _) = self.plan_for_edit();
        plan.apply_push_down(tree, id)
    }

    /// The paper's Enforce_S through the plan: the walk and decisions of
    /// [`Octree::enforce_s`] (one walk, [`Octree::enforce_s_with`]), with
    /// each collapse/push-down patching the plan. The boolean reports
    /// whether the plan was live on entry — true wherever a driver timed
    /// the step first.
    pub fn enforce_s(&mut self) -> (EnforceOutcome, bool) {
        let (plan, tree, live) = self.plan_for_edit();
        let out = tree.enforce_s_with(
            plan,
            IncrementalLists::apply_collapse,
            IncrementalLists::apply_push_down,
        );
        (out, live)
    }

    /// Bring the plan in sync with the current tree: full (re)build when no
    /// trusted plan exists, otherwise a reconciliation after the rebin
    /// ([`IncrementalLists::refresh_counts`]) — a recount, with the lists
    /// patched through any cell the rebin emptied or filled.
    pub fn refresh_plan(&mut self) -> PlanRefresh {
        let stale = self.plan_state == PlanState::Stale;
        self.plan_state = PlanState::Live;
        match self.plan.as_mut() {
            Some(plan) if !stale => plan.refresh_counts(&self.tree),
            Some(plan) => {
                plan.rebuild(&self.tree);
                PlanRefresh::Rebuilt
            }
            None => {
                self.plan = Some(IncrementalLists::build(&self.tree, self.params.mac));
                PlanRefresh::Rebuilt
            }
        }
    }

    /// Refresh the plan and return its operation counts — the
    /// tree-dependent half of the paper's time prediction ("a count for the
    /// number of times each operation will be performed for the given tree
    /// is accumulated").
    pub fn refresh_lists(&mut self) -> OpCounts {
        self.refresh_plan();
        self.counts()
    }

    /// Time one virtual solve of the current tree on `node` from the
    /// refreshed plan's interaction lists, under the engine's
    /// [`ExecPolicy`] (see [`FmmEngine::set_exec_policy`]).
    pub fn time_step(
        &mut self,
        flops: &OpFlops,
        node: &HeteroNode,
    ) -> Result<TimingReport, crate::Error> {
        self.refresh_plan();
        crate::exec::time_step(&self.tree, self.lists(), flops, node, self.exec_policy)
    }

    // ---- resilience: audits, checkpointing, chaos hooks ----

    /// Verify the octree's structural invariants (root coverage, order
    /// permutation, child tiling/levels/geometry).
    pub fn audit_tree(&self) -> Result<(), crate::Error> {
        self.tree
            .check_invariants()
            .map_err(|detail| crate::Error::AuditFailed {
                what: "tree",
                detail,
            })
    }

    /// Verify the live plan: stamp/epoch monotonicity, and equality, field
    /// by field, with a fresh plan build of the tree
    /// ([`IncrementalLists::audit`]), so it costs about a plan build. A missing or stale plan passes
    /// vacuously — nothing cached is being trusted.
    /// Between a [`FmmEngine::rebin`] and the next
    /// [`FmmEngine::refresh_plan`] the counts lag the tree legitimately, so
    /// the audit runs on a reconciled copy of the plan.
    pub fn audit_plan(&self) -> Result<(), crate::Error> {
        let Some(plan) = self.live_plan() else {
            return Ok(());
        };
        let reconciled = (self.plan_state == PlanState::Rebinned).then(|| {
            let mut copy = plan.clone();
            copy.refresh_counts(&self.tree);
            copy
        });
        reconciled
            .as_ref()
            .unwrap_or(plan)
            .audit(&self.tree)
            .map_err(|detail| crate::Error::AuditFailed {
                what: "plan",
                detail,
            })
    }

    /// Verify every body coordinate is finite — NaN positions silently
    /// poison Morton codes, rebins and every downstream float sum.
    pub fn audit_bodies(pos: &[Vec3]) -> Result<(), crate::Error> {
        for (i, p) in pos.iter().enumerate() {
            if !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite()) {
                return Err(crate::Error::AuditFailed {
                    what: "bodies",
                    detail: format!("body {i} has non-finite coordinates {p:?}"),
                });
            }
        }
        Ok(())
    }

    /// Structural heap footprint of everything the engine owns: the tree,
    /// the live plan (when one exists), and the solve scratch buffers
    /// (tree-ordered gathers plus expansion storage), all at capacity
    /// granularity. The `mem.footprint` snapshot part reads this.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.tree.heap_bytes()
            + self.plan.as_ref().map_or(0, IncrementalLists::heap_bytes)
            + self.bodies.heap_bytes()
            + self.field.heap_bytes()
            + self.multipoles.capacity() * size_of::<f64>()
            + self.forms.capacity() * size_of::<f32>()
            + self.locals.capacity() * size_of::<f64>()
            + self.level_scratch.capacity() * size_of::<f64>()
    }

    /// Patch/refresh epoch of the live plan (`None` without one). The
    /// supervisor tracks this across steps to verify the plan clock never
    /// runs backwards.
    pub fn plan_epoch(&self) -> Option<u32> {
        self.live_plan().map(IncrementalLists::epoch)
    }

    /// Capture the complete engine state for checkpointing. Scratch buffers
    /// (tree-ordered gathers, expansion storage) are excluded: every solve
    /// resizes and overwrites them in full, so they carry no state across
    /// steps. So is the plan: it is a function of the tree, which a restored
    /// engine's first refresh builds it from.
    pub fn checkpoint_state(&self) -> crate::checkpoint::EngineSnapshot {
        crate::checkpoint::EngineSnapshot {
            params: self.params,
            domain: self.domain,
            tree: self.tree.snapshot(),
        }
    }

    /// Reconstruct an engine from a snapshot. The kernel is configuration
    /// (stateless), so the caller supplies it; everything stateful comes
    /// from the snapshot, validated on the way in. The engine has no plan
    /// until its first refresh builds one.
    pub fn restore_state(
        kernel: K,
        snap: crate::checkpoint::EngineSnapshot,
    ) -> Result<Self, crate::Error> {
        let tree = Octree::from_snapshot(snap.tree).map_err(crate::Error::Checkpoint)?;
        Ok(Self::from_tree(kernel, snap.params, tree, snap.domain))
    }

    /// Chaos-harness access to the live plan for corruption injection. This
    /// deliberately does *not* mark the plan stale — the whole point is to
    /// rot cached state behind the engine's back and prove the audits catch
    /// it. Returns `None` when there is no live plan to corrupt.
    pub fn plan_mut_for_chaos(&mut self) -> Option<&mut IncrementalLists> {
        let live = self.has_live_plan();
        self.plan.as_mut().filter(|_| live)
    }

    /// Run one full FMM solve: gather bodies into tree order, traverse,
    /// upsweep, downsweep, near field, scatter back.
    ///
    /// `strength` is flat with [`Kernel::strength_dim`] values per body, in
    /// original body order.
    pub fn solve(&mut self, pos: &[Vec3], strength: &[f64]) -> FmmSolution {
        self.try_solve(pos, strength)
            .expect("inconsistent solve inputs")
    }

    /// As [`FmmEngine::solve`], but reporting caller mistakes (body count
    /// or strength length out of sync with the tree) as [`crate::Error`]
    /// instead of panicking.
    pub fn try_solve(
        &mut self,
        pos: &[Vec3],
        strength: &[f64],
    ) -> Result<FmmSolution, crate::Error> {
        let n = pos.len();
        let sd = self.kernel.strength_dim();
        let ch = self.kernel.channels();
        let nt = self.ops.nterms();
        let stride = ch * nt;
        if n != self.tree.num_bodies() {
            return Err(crate::Error::BodyCountChanged {
                expected: self.tree.num_bodies(),
                got: n,
            });
        }
        if strength.len() != sd * n {
            return Err(crate::Error::StrengthLengthMismatch {
                expected: sd * n,
                got: strength.len(),
            });
        }

        self.refresh_lists();

        self.bodies.gather(self.tree.order(), pos, strength, sd);
        self.field.reset(n);

        let n_nodes = self.tree.num_nodes();
        self.multipoles.clear();
        self.multipoles.resize(n_nodes * stride, 0.0);
        self.forms.clear();
        self.forms.resize(n_nodes * ch * self.ops.form_len(), 0.0);
        self.locals.clear();
        self.locals.resize(n_nodes * stride, 0.0);

        if n > 0 {
            // One allocation scope over the three numeric phases. The sweeps
            // build each level in the engine's `level_scratch` and the near
            // field writes in place, so what "phase" still counts is
            // per-solve bookkeeping — the level and leaf lists and each
            // level's worker scratch — a few dozen allocations whatever the
            // node count. The memory observatory gates it at that value
            // rather than at zero like "rebin"/"plan.refresh".
            let _mem = telemetry::AllocScope::enter("phase");
            let levels = self.tree.levels();
            let widest = levels.iter().map(Vec::len).max().unwrap_or(0);
            self.level_scratch.resize(widest * stride, 0.0);
            {
                let mut span = self.rec.start_span("solve.upsweep");
                span.field("bodies", n);
                self.upsweep(&levels, stride);
            }
            {
                let _span = self.rec.start_span("solve.downsweep");
                self.downsweep(&levels, stride);
            }
            {
                let _span = self.rec.start_span("solve.near_field");
                self.near_field();
            }
        }

        // Scatter results back to original order.
        let mut pot = vec![0.0; n];
        let mut field = vec![Vec3::ZERO; n];
        let out = &self.field;
        for (i, &b) in self.tree.order().iter().enumerate() {
            pot[b as usize] = out.pot[i];
            field[b as usize] = Vec3::new(out.x[i], out.y[i], out.z[i]);
        }
        Ok(FmmSolution { pot, field })
    }

    /// P2M at the leaves, M2M up the levels (deep → shallow), then every
    /// non-empty visible node's source form.
    fn upsweep(&mut self, levels: &[Vec<NodeId>], stride: usize) {
        let kernel = &self.kernel;
        let ops = &self.ops;
        let tree = &self.tree;
        let bodies = &self.bodies;
        let ch = kernel.channels();
        for lv in levels.iter().rev() {
            // Each node at this level computes its expansion from bodies
            // (leaf) or already-finished children (deeper level), into its
            // own chunk of the level scratch.
            let built = &mut self.level_scratch[..lv.len() * stride];
            built.fill(0.0);
            let multipoles = &self.multipoles;
            built
                .par_chunks_mut(stride)
                .zip(lv.par_iter())
                .for_each_init(Vec::new, |pow, (m, &id)| {
                    let node = tree.node(id);
                    if node.count() == 0 {
                        return;
                    }
                    if node.is_leaf() {
                        kernel.p2m_tile(ops, node.center, bodies.tile(node.range()), m, pow);
                    } else {
                        for c in tree.visible_children(id) {
                            let cn = tree.node(c);
                            if cn.count() == 0 {
                                continue;
                            }
                            let src = &multipoles[c as usize * stride..(c as usize + 1) * stride];
                            ops.m2m(src, cn.center - node.center, m, ch, pow);
                        }
                    }
                });
            copy_level(built, lv, stride, &mut self.multipoles);
        }
        // Every finished multipole once into the form the far field reads
        // (a node under a collapsed one keeps its stale count: skipped).
        let (multipoles, forms) = (&self.multipoles, &mut self.forms);
        forms
            .par_chunks_mut(ch * ops.form_len())
            .enumerate()
            .for_each_init(Vec::new, |buf, (id, form)| {
                let node = tree.node(id as NodeId);
                if node.count() > 0 && tree.is_visible(id as NodeId) {
                    let m = &multipoles[id * stride..(id + 1) * stride];
                    ops.source_form(m, node.half_width, ch, form, buf);
                }
            });
    }

    /// L2L from parents + M2L from interaction lists, shallow → deep, then
    /// L2P at the leaves (folded into [`FmmEngine::near_field`]'s leaf pass).
    fn downsweep(&mut self, levels: &[Vec<NodeId>], stride: usize) {
        let ch = self.kernel.channels();
        // Taken out for the sweep so the level closures can borrow `self`.
        let mut level_scratch = std::mem::take(&mut self.level_scratch);
        for lv in levels {
            let built = &mut level_scratch[..lv.len() * stride];
            built.fill(0.0);
            let (ops, tree, locals) = (&self.ops, &self.tree, &self.locals);
            built
                .par_chunks_mut(stride)
                .zip(lv.par_iter())
                .for_each_init(
                    || (Vec::new(), M2lScratch::default()),
                    |(pow, ds), (l, &id)| {
                        let node = tree.node(id);
                        if node.count() == 0 {
                            return;
                        }
                        if node.parent != NONE {
                            let p = node.parent as usize;
                            let src = &locals[p * stride..(p + 1) * stride];
                            let t = node.center - tree.node(node.parent).center;
                            ops.l2l(src, t, l, ch, pow);
                        }
                        self.m2l_into(id, l, ds);
                    },
                );
            copy_level(built, lv, stride, &mut self.locals);
        }
        self.level_scratch = level_scratch;
    }

    /// Accumulate node `id`'s whole M2L list into its local expansion
    /// `local`, from the source forms the last solve's upsweep left: the
    /// list goes through [`ExpansionOps::m2l_batch`] in `chunks(M2L_LANES)`,
    /// in list order — so the plan's lists alone fix the summation order.
    /// The downsweep's inner loop, public so the perf lab can time it alone.
    pub fn m2l_into(&self, id: NodeId, local: &mut [f64], scratch: &mut M2lScratch) {
        let ch = self.kernel.channels();
        let fstride = ch * self.ops.form_len();
        let target = self.tree.node(id);
        for chunk in self.lists().m2l[id as usize].chunks(M2L_LANES) {
            let source = |b: NodeId| {
                let node = self.tree.node(b);
                let b = b as usize;
                M2lSource {
                    form: &self.forms[b * fstride..(b + 1) * fstride],
                    half_width: node.half_width,
                    r: target.center - node.center,
                }
            };
            let mut src = [source(chunk[0]); M2L_LANES];
            for (s, &b) in src.iter_mut().zip(chunk) {
                *s = source(b);
            }
            let src = &src[..chunk.len()];
            self.ops
                .m2l_batch(src, target.half_width, local, ch, scratch);
        }
    }

    /// Accumulate leaf `id`'s whole P2P list into `out` (the leaf's window of
    /// the output lanes), from the bodies the last solve gathered: the leaf
    /// is split into `scratch` once, then each source leaf goes through
    /// [`Kernel::p2p_split`] in list order and reaches `out` on its own — so a
    /// source leaf's contribution does not depend on where the list puts it.
    /// The near field's inner loop, public so the perf lab can time it alone.
    pub fn p2p_into(&self, id: NodeId, out: &mut FieldTile<'_>, scratch: &mut SplitTile) {
        let list = &self.lists().p2p[id as usize];
        if list.is_empty() {
            return;
        }
        scratch.load(self.bodies.tile(self.tree.node(id).range()));
        for &b in list {
            let src = self.bodies.tile(self.tree.node(b).range());
            self.kernel.p2p_split(scratch, out, src, b == id);
        }
    }

    /// Per-leaf L2P (far field applied to bodies) and P2P (direct
    /// interactions with non-separated leaves), accumulated in place: each
    /// leaf gets the `&mut` sub-slices of the output lanes that cover its
    /// body range.
    fn near_field(&mut self) {
        // Taken out for the pass so the leaf closures can borrow `self`.
        let mut field = std::mem::take(&mut self.field);
        let this = &*self;
        let (tree, ops, kernel) = (&this.tree, &this.ops, &this.kernel);
        let locals = &this.locals;
        let stride = kernel.channels() * ops.nterms();

        // Leaves come in DFS (= tree) order, so their ranges ascend and one
        // split walk down the output lanes hands every leaf its own window.
        let bodies = &this.bodies;
        let leaves = tree.active_leaves();
        let mut work = Vec::with_capacity(leaves.len());
        let mut rest = field.tile();
        let mut at = 0;
        for id in leaves {
            let r = tree.node(id).range();
            let (_, tail) = rest.split_at(r.start - at);
            let (mine, tail) = tail.split_at(r.len());
            work.push((id, mine));
            rest = tail;
            at = r.end;
        }

        work.into_par_iter().for_each_init(
            || (Vec::new(), SplitTile::default()),
            |(pow, split), (id, mut out)| {
                let node = tree.node(id);
                let tgt = bodies.tile(node.range());
                // Far field: evaluate the leaf's local expansion.
                let l = &locals[id as usize * stride..(id as usize + 1) * stride];
                kernel.l2p_tile(ops, node.center, l, tgt, &mut out, pow);
                // Near field: direct interaction with every source leaf.
                this.p2p_into(id, &mut out, split);
            },
        );
        self.field = field;
    }
}

/// Copy one level's freshly built expansions (`built`, one `stride` chunk
/// per node of `lv`, in order) into their node-major slots of `arena`.
fn copy_level(built: &[f64], lv: &[NodeId], stride: usize, arena: &mut [f64]) {
    for (chunk, &id) in built.chunks(stride).zip(lv) {
        arena[id as usize * stride..(id as usize + 1) * stride].copy_from_slice(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_math::{GravityKernel, StokesletKernel};
    use nbody::{plummer, random_unit_forces, uniform_cube};
    use octree::Mac;

    fn rel_field_err(fmm: &[Vec3], direct: &[Vec3]) -> f64 {
        let num: f64 = fmm
            .iter()
            .zip(direct)
            .map(|(a, b)| (*a - *b).norm_sq())
            .sum();
        let den: f64 = direct.iter().map(|v| v.norm_sq()).sum();
        (num / den).sqrt()
    }

    #[test]
    fn gravity_matches_direct_sum() {
        let b = plummer(400, 1.0, 1.0, 101);
        let kernel = GravityKernel::default();
        let direct = nbody::direct_gravity(&b, 1.0, 0.0);
        for (order, tol) in [(3usize, 3e-3), (6, 2e-5)] {
            let params = FmmParams {
                order,
                mac: Mac::new(0.5),
                max_level: 21,
            };
            let mut engine = FmmEngine::new(kernel, params, &b.pos, 24);
            let sol = engine.solve(&b.pos, &b.mass);
            let err = rel_field_err(&sol.field, &direct);
            assert!(err < tol, "p={order}: field error {err}");
        }
    }

    #[test]
    fn gravity_error_shrinks_with_order() {
        let b = plummer(300, 1.0, 1.0, 102);
        let direct = nbody::direct_gravity(&b, 1.0, 0.0);
        let mut last = f64::INFINITY;
        for order in [2usize, 4, 6] {
            let params = FmmParams {
                order,
                mac: Mac::new(0.5),
                max_level: 21,
            };
            let mut engine = FmmEngine::new(GravityKernel::default(), params, &b.pos, 16);
            let sol = engine.solve(&b.pos, &b.mass);
            let err = rel_field_err(&sol.field, &direct);
            assert!(err < last, "p={order}: {err} !< {last}");
            last = err;
        }
    }

    #[test]
    fn stokeslet_matches_direct_sum() {
        let b = uniform_cube(300, 1.0, 103);
        let f = random_unit_forces(300, 104);
        let kernel = StokesletKernel::new(1e-3, 1.0);
        // Direct velocities.
        let mut dpot = vec![0.0; b.len()];
        let mut du = vec![Vec3::ZERO; b.len()];
        kernel.p2p(&b.pos, &mut dpot, &mut du, &b.pos, &f, true);

        let params = FmmParams {
            order: 6,
            mac: Mac::new(0.5),
            max_level: 21,
        };
        let mut engine = FmmEngine::new(kernel, params, &b.pos, 20);
        let sol = engine.solve(&b.pos, &f);
        let err = rel_field_err(&sol.field, &du);
        assert!(err < 1e-3, "stokeslet field error {err}");
    }

    #[test]
    fn solve_is_deterministic() {
        let b = plummer(500, 1.0, 1.0, 105);
        let params = FmmParams::default();
        let mut e1 = FmmEngine::new(GravityKernel::default(), params, &b.pos, 32);
        let mut e2 = FmmEngine::new(GravityKernel::default(), params, &b.pos, 32);
        let s1 = e1.solve(&b.pos, &b.mass);
        let s2 = e2.solve(&b.pos, &b.mass);
        assert_eq!(s1.field, s2.field);
        assert_eq!(s1.pot, s2.pot);
    }

    #[test]
    fn result_independent_of_s() {
        // Different decompositions shift work between far and near field but
        // must agree on the answer to expansion accuracy.
        let b = plummer(400, 1.0, 1.0, 106);
        let params = FmmParams {
            order: 6,
            mac: Mac::new(0.5),
            max_level: 21,
        };
        let mut coarse = FmmEngine::new(GravityKernel::default(), params, &b.pos, 200);
        let mut fine = FmmEngine::new(GravityKernel::default(), params, &b.pos, 10);
        let sc = coarse.solve(&b.pos, &b.mass);
        let sf = fine.solve(&b.pos, &b.mass);
        let diff = rel_field_err(&sc.field, &sf.field);
        assert!(diff < 1e-4, "S-dependence {diff}");
    }

    #[test]
    fn result_stable_under_collapse_and_pushdown() {
        let b = plummer(400, 1.0, 1.0, 107);
        let params = FmmParams {
            order: 6,
            mac: Mac::new(0.5),
            max_level: 21,
        };
        let mut engine = FmmEngine::new(GravityKernel::default(), params, &b.pos, 16);
        let base = engine.solve(&b.pos, &b.mass);
        // Collapse a few internal nodes and push down a few leaves.
        let internals: Vec<NodeId> = engine
            .tree()
            .visible_nodes()
            .into_iter()
            .filter(|&id| !engine.tree().node(id).is_leaf() && id != Octree::ROOT)
            .take(4)
            .collect();
        for id in internals {
            engine.tree_mut().collapse(id);
        }
        let leaves: Vec<NodeId> = engine
            .tree()
            .active_leaves()
            .into_iter()
            .filter(|&id| engine.tree().node(id).count() > 4)
            .take(4)
            .collect();
        for id in leaves {
            engine.tree_mut().push_down(id);
        }
        let modified = engine.solve(&b.pos, &b.mass);
        let diff = rel_field_err(&modified.field, &base.field);
        assert!(diff < 1e-4, "tree-modification dependence {diff}");
    }

    #[test]
    fn momentum_conserved_by_fmm_forces() {
        let b = plummer(600, 1.0, 1.0, 108);
        let params = FmmParams {
            order: 4,
            mac: Mac::new(0.6),
            max_level: 21,
        };
        let mut engine = FmmEngine::new(GravityKernel::default(), params, &b.pos, 32);
        let sol = engine.solve(&b.pos, &b.mass);
        let net: Vec3 = sol.field.iter().zip(&b.mass).map(|(&a, &m)| a * m).sum();
        let scale: f64 = sol.field.iter().map(|a| a.norm()).sum::<f64>();
        // FMM forces are not exactly antisymmetric (truncation), but the net
        // must be far below the force magnitudes.
        assert!(net.norm() < 1e-3 * scale, "net {net:?} vs scale {scale}");
    }

    #[test]
    fn rebin_then_solve_tracks_motion() {
        let mut b = plummer(400, 1.0, 1.0, 109);
        let params = FmmParams {
            order: 5,
            mac: Mac::new(0.5),
            max_level: 21,
        };
        let mut engine = FmmEngine::with_domain(
            GravityKernel::default(),
            params,
            &b.pos,
            24,
            Vec3::ZERO,
            40.0,
        );
        engine.solve(&b.pos, &b.mass);
        // Move bodies, rebin (structure unchanged), re-solve, compare direct.
        for p in &mut b.pos {
            *p = *p * 1.1 + Vec3::new(0.3, -0.2, 0.1);
        }
        engine.rebin(&b.pos);
        let sol = engine.solve(&b.pos, &b.mass);
        let direct = nbody::direct_gravity(&b, 1.0, 0.0);
        let err = rel_field_err(&sol.field, &direct);
        assert!(err < 1e-3, "post-rebin error {err}");
    }

    #[test]
    fn counts_available_after_solve() {
        let b = plummer(300, 1.0, 1.0, 110);
        let mut engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 16);
        engine.solve(&b.pos, &b.mass);
        let c = engine.counts();
        assert_eq!(c.p2m_bodies, 300);
        assert_eq!(c.l2p_bodies, 300);
        assert!(c.p2p_interactions > 0);
        assert!(c.m2l_ops > 0);
    }

    #[test]
    fn uniform_engine_matches_adaptive_physics() {
        let b = uniform_cube(500, 1.0, 111);
        let params = FmmParams {
            order: 6,
            mac: Mac::new(0.5),
            max_level: 21,
        };
        let mut adaptive = FmmEngine::new(GravityKernel::default(), params, &b.pos, 16);
        let mut uniform = FmmEngine::new_uniform(GravityKernel::default(), params, &b.pos, 3);
        let sa = adaptive.solve(&b.pos, &b.mass);
        let su = uniform.solve(&b.pos, &b.mass);
        let diff = rel_field_err(&su.field, &sa.field);
        assert!(diff < 1e-4, "uniform vs adaptive field difference {diff}");
        // The uniform tree really is fixed-depth.
        assert!(uniform
            .tree()
            .visible_leaves()
            .iter()
            .all(|&l| uniform.tree().node(l).level == 3));
    }

    /// Edits never invalidate the plan: on a stale one (just after
    /// `rebuild`) each edit brings it up first and then patches it.
    #[test]
    fn edits_on_a_stale_plan_leave_it_live_and_exact() {
        type Edit = fn(&mut FmmEngine<GravityKernel>) -> bool;
        let edits: [(&str, Edit); 3] = [
            ("apply_collapse", |e| {
                let t = e.tree();
                let mut inner = t.visible_nodes().into_iter().skip(1);
                let id = inner.find(|&id| !t.node(id).is_leaf()).unwrap();
                e.apply_collapse(id)
            }),
            ("apply_push_down", |e| {
                let t = e.tree();
                let leaves = t.active_leaves().into_iter();
                let id = leaves.max_by_key(|&id| t.node(id).count()).unwrap();
                e.apply_push_down(id)
            }),
            ("enforce_s", |e| {
                e.set_s(8);
                let (outcome, was_live) = e.enforce_s();
                !was_live && outcome.pushdowns > 0
            }),
        ];
        let b = plummer(3000, 1.0, 1.0, 112);
        for (name, edit) in edits {
            let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 32);
            e.refresh_plan();
            e.rebuild(&b.pos, 32);
            assert_eq!(e.plan_epoch(), None, "rebuild leaves the plan stale");
            assert!(edit(&mut e), "{name} did not apply");
            assert!(e.plan_epoch().is_some(), "{name} left the plan stale");
            let fresh = octree::dual_traversal(e.tree(), e.params().mac);
            assert_eq!(e.counts(), octree::count_ops(e.tree(), &fresh), "{name}");
            e.audit_plan().unwrap();
        }
    }

    /// A rebin that empties cells, then edits before any refresh: each edit
    /// reconciles the plan first, so no emptied cell is recounted out of
    /// the refresh that must re-traverse for it.
    #[test]
    fn edits_after_a_rebin_that_empties_cells_leave_the_plan_exact() {
        let b = plummer(3000, 1.0, 1.0, 113);
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 8);
        e.refresh_plan();
        let mut moved = b.pos.clone();
        let t = e.tree();
        for leaf in t.active_leaves().into_iter().step_by(13) {
            for i in t.node(leaf).range() {
                let body = t.order()[i] as usize;
                moved[body] = b.pos[(7 * body + 1) % b.len()];
            }
        }
        e.rebin(&moved);
        let t = e.tree();
        let twigs: Vec<NodeId> = (t.visible_nodes().into_iter())
            .filter(|&id| {
                !t.node(id).is_leaf() && t.visible_children(id).all(|c| t.node(c).is_leaf())
            })
            .step_by(3)
            .collect();
        assert!(twigs.len() > 10);
        for id in twigs {
            assert!(e.apply_collapse(id));
        }
        e.refresh_plan();
        e.audit_plan().unwrap();
    }

    #[test]
    fn single_body_is_forceless() {
        let pos = vec![Vec3::new(0.3, 0.2, 0.1)];
        let mut engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &pos, 8);
        let sol = engine.solve(&pos, &[1.0]);
        assert_eq!(sol.field[0], Vec3::ZERO);
        assert_eq!(sol.pot[0], 0.0);
    }
}
