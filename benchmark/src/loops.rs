//! The step loops. Each workload has a *driver* stepper — the library's
//! public time-stepping driver, which is what the untraced run measures — and
//! the balanced workloads also have a *replica* that makes the same calls one
//! by one with a span around each, for the traced run. The pinned workloads
//! have no library driver, so one engine-level loop serves both runs with the
//! tracer on or off.

use crate::inputs::{Inputs, COLLAPSE_SOFTENING, G, STOKES_EPSILON, STOKES_MU};
use crate::probes::{self, Probes};
use crate::spec::{Kind, Workload};
use crate::trace::Tracer;
use afmm::{
    lbtime, CostModel, FmmEngine, FmmParams, GravitySim, HeteroNode, LbConfig, LbReport, LbState,
    LoadBalancer, StepRecord, Strategy, StrategyTracker, TimingFilter,
};
use fmm_math::{GravityKernel, Kernel, OpFlops, StokesletKernel};
use geom::Vec3;
use nbody::{Bodies, Leapfrog};
use octree::{OpCounts, PlanRefresh};

/// What the traced loops collect besides spans.
#[derive(Default)]
pub struct LoopStats {
    /// |predicted - actual| / actual of the cost model trained through the
    /// previous step, one per step after the first.
    pub prediction_rel_err: Vec<f64>,
    /// What the balancer (or the pinned loop's Enforce_S) did each step.
    pub reports: Vec<LbReport>,
    /// Op counts of the most recent solve.
    pub last_counts: OpCounts,
}

pub struct Accuracy {
    pub field_rel_err: f64,
    pub direct_ns_per_pair: f64,
}

pub trait Stepper {
    /// Untimed hook before step `k` (trajectory generation, bookkeeping).
    fn prepare(&mut self, _k: usize) {}
    /// One closed-loop step. `Err` also covers a non-finite solve output; the
    /// caller checks the record and the positions.
    fn step(&mut self, tr: &mut Tracer) -> Result<StepRecord, String>;
    /// Positions the next step will consume.
    fn positions(&self) -> &[Vec3];
    /// Field error of the most recent solve against direct sum over
    /// `solve_pos` (the positions that solve saw). `None`: nothing solved.
    fn accuracy(&self, _solve_pos: &[Vec3]) -> Option<Accuracy> {
        None
    }
    /// Total energy by direct summation, where the workload has one.
    fn energy(&self) -> Option<f64> {
        None
    }
    fn stats(&self) -> Option<&LoopStats> {
        None
    }
    /// Layer probes over the final tree and plan (replicas only).
    fn probe(&mut self, _tr: &mut Tracer) -> Option<Result<Probes, String>> {
        None
    }
}

fn all_finite(field: &[Vec3], pot: &[f64]) -> bool {
    field.iter().all(|v| v.is_finite()) && pot.iter().all(|p| p.is_finite())
}

/// What every engine-level loop owns: the engine on its virtual node, the
/// cost model trained step by step, and what the run collects.
struct Core<K: Kernel + Copy> {
    engine: FmmEngine<K>,
    flops: OpFlops,
    model: CostModel,
    node: HeteroNode,
    steps_done: usize,
    stats: LoopStats,
}

impl<K: Kernel + Copy> Core<K> {
    fn new(mut engine: FmmEngine<K>, node: HeteroNode, rec: &telemetry::Recorder) -> Self {
        engine.set_recorder(rec.clone());
        let flops = engine.kernel.op_flops(engine.expansion_ops());
        Core {
            engine,
            flops,
            model: CostModel::new(),
            node,
            steps_done: 0,
            stats: LoopStats::default(),
        }
    }

    /// Predict with the model as trained through the previous step, time the
    /// step on the virtual node, then let the model observe it — the order
    /// the library's drivers use.
    fn predict_time_observe(
        &mut self,
        counts: &OpCounts,
        tr: &mut Tracer,
    ) -> Result<afmm::TimingReport, String> {
        let Core {
            engine,
            flops,
            model,
            node,
            stats,
            ..
        } = self;
        let predicted = (tr.is_on() && model.is_observed())
            .then(|| tr.time("afmm.predict", || model.predict(counts, node)));
        let timing = tr
            .time("afmm.time_step", || engine.time_step(flops, node))
            .map_err(|e| e.to_string())?;
        tr.time("afmm.observe", || {
            model.observe(counts, &timing, flops, node)
        });
        if let Some(p) = predicted {
            stats
                .prediction_rel_err
                .push((p.compute() - timing.compute()).abs() / timing.compute());
        }
        Ok(timing)
    }

    /// Close the step: keep what the balancer did and the counts, and build
    /// the record the library's drivers build.
    fn finish_step(
        &mut self,
        s: usize,
        state: LbState,
        timing: &afmm::TimingReport,
        report: LbReport,
        t_lb: f64,
        counts: OpCounts,
    ) -> StepRecord {
        self.stats.reports.push(report);
        self.stats.last_counts = counts;
        let step = self.steps_done;
        self.steps_done += 1;
        StepRecord {
            step,
            s,
            state,
            t_cpu: timing.t_cpu,
            t_gpu: timing.t_gpu,
            t_lb,
            gpu_efficiency: timing.gpu_efficiency(),
            p2p_interactions: counts.p2p_interactions,
            m2l_ops: counts.m2l_ops,
        }
    }

    fn probe(
        &mut self,
        pos: &[Vec3],
        strength: Option<&[f64]>,
        tr: &mut Tracer,
    ) -> Option<Result<Probes, String>> {
        Some(probes::run(
            &mut self.engine,
            pos,
            strength,
            &self.node,
            &self.model,
            tr,
        ))
    }
}

// ---- pinned S: engine-level loop ------------------------------------------

/// How a pinned workload moves its points with the freshly solved field.
pub trait Dynamics {
    fn pos(&self) -> &[Vec3];
    fn strength(&self) -> &[f64];
    fn advance(&mut self, field: &[Vec3]);
}

/// Kick-drift-kick leapfrog with the force evaluation between the kicks.
pub struct GravityDynamics {
    bodies: Bodies,
    lf: Leapfrog,
    started: bool,
}

impl Dynamics for GravityDynamics {
    fn pos(&self) -> &[Vec3] {
        &self.bodies.pos
    }
    fn strength(&self) -> &[f64] {
        &self.bodies.mass
    }
    fn advance(&mut self, field: &[Vec3]) {
        // G = 1, so the kernel's field is the acceleration. The fresh forces
        // close the previous step's second half-kick and open this one's.
        if self.started {
            self.lf.kick(&mut self.bodies, field);
        }
        self.lf.kick(&mut self.bodies, field);
        self.lf.drift(&mut self.bodies);
        self.started = true;
    }
}

/// Force points advected by the Stokes flow they drive.
pub struct StokesDynamics {
    pos: Vec<Vec3>,
    forces: Vec<f64>,
    dt: f64,
}

impl Dynamics for StokesDynamics {
    fn pos(&self) -> &[Vec3] {
        &self.pos
    }
    fn strength(&self) -> &[f64] {
        &self.forces
    }
    fn advance(&mut self, field: &[Vec3]) {
        for (p, &u) in self.pos.iter_mut().zip(field) {
            *p += u * self.dt;
        }
    }
}

pub struct Pinned<K: Kernel + Copy, D: Dynamics> {
    core: Core<K>,
    dynamics: D,
    last_field: Vec<Vec3>,
}

impl<K: Kernel + Copy, D: Dynamics> Pinned<K, D> {
    fn new(kernel: K, dynamics: D, inp: &Inputs, s: usize, rec: &telemetry::Recorder) -> Self {
        let (c, hw) = inp.domain;
        let engine = FmmEngine::with_domain(kernel, FmmParams::default(), dynamics.pos(), s, c, hw);
        Pinned {
            // The pinned workloads report the virtual clock of the paper's
            // full Test System A.
            core: Core::new(engine, HeteroNode::system_a(10, 4), rec),
            dynamics,
            last_field: Vec::new(),
        }
    }
}

impl<K: Kernel + Copy, D: Dynamics> Stepper for Pinned<K, D> {
    fn step(&mut self, tr: &mut Tracer) -> Result<StepRecord, String> {
        let Pinned { core, dynamics, .. } = self;
        core.engine.recorder().set_step(core.steps_done as u64);
        let s = core.engine.tree().s_value();
        let sol = tr
            .time("afmm.try_solve", || {
                core.engine.try_solve(dynamics.pos(), dynamics.strength())
            })
            .map_err(|e| e.to_string())?;
        let counts = tr.time("afmm.counts", || core.engine.counts());
        let timing = core.predict_time_observe(&counts, tr)?;
        tr.time("nbody.integrate", || dynamics.advance(&sol.field));

        // Maintenance for the next step, charged like the balancer charges
        // its own: re-bin, reconcile the plan, restore the S invariant.
        let (engine, node) = (&mut core.engine, &core.node);
        tr.time("octree.rebin", || engine.rebin(dynamics.pos()));
        let mut t_lb = lbtime::rebin(node, dynamics.pos().len());
        if tr.time("octree.refresh", || engine.refresh_plan()) == PlanRefresh::Rebuilt {
            let entries = engine.lists().num_m2l() + engine.lists().num_p2p_pairs();
            t_lb += lbtime::predict(node, entries);
        }
        let nodes_before = engine.tree().visible_nodes().len();
        let (outcome, patched) = tr.time("octree.enforce", || engine.enforce_s());
        let edits = outcome.collapses + outcome.pushdowns;
        t_lb += lbtime::enforce(node, nodes_before, edits);
        if patched {
            t_lb += lbtime::plan_patch(node, edits);
        }
        let report = LbReport {
            lb_time: t_lb,
            enforced: true,
            patched,
            ..Default::default()
        };

        if !all_finite(&sol.field, &sol.pot) {
            return Err("non-finite solve output".into());
        }
        self.last_field = sol.field;
        Ok(core.finish_step(s, LbState::Frozen, &timing, report, t_lb, counts))
    }

    fn positions(&self) -> &[Vec3] {
        self.dynamics.pos()
    }

    fn accuracy(&self, solve_pos: &[Vec3]) -> Option<Accuracy> {
        Some(probes::accuracy(
            &self.core.engine.kernel,
            solve_pos,
            self.dynamics.strength(),
            &self.last_field,
        ))
    }

    fn stats(&self) -> Option<&LoopStats> {
        Some(&self.core.stats)
    }

    fn probe(&mut self, tr: &mut Tracer) -> Option<Result<Probes, String>> {
        self.core
            .probe(self.dynamics.pos(), Some(self.dynamics.strength()), tr)
    }
}

// ---- collapse_balanced -----------------------------------------------------

fn collapse_config() -> (HeteroNode, LbConfig) {
    (
        HeteroNode::system_a(10, 1),
        LbConfig {
            eps_switch_s: 2.5e-3,
            ..Default::default()
        },
    )
}

/// The field a semi-implicit Euler step applied, recovered from the bodies'
/// velocity change (`v += field * G * dt`).
fn field_from_kick(before: &[Vec3], after: &[Vec3], dt: f64) -> Vec<Vec3> {
    before
        .iter()
        .zip(after)
        .map(|(&b, &a)| (a - b) / (G * dt))
        .collect()
}

fn gravity_accuracy(pos: &[Vec3], mass: &[f64], field: &[Vec3]) -> Accuracy {
    probes::accuracy(&GravityKernel::new(COLLAPSE_SOFTENING), pos, mass, field)
}

pub fn collapse_energy(bodies: &Bodies) -> f64 {
    nbody::total_energy(bodies, G, COLLAPSE_SOFTENING).total()
}

/// Untraced: the library's `GravitySim` driver.
pub struct CollapseDriver {
    sim: GravitySim,
    vel_before: Vec<Vec3>,
}

impl Stepper for CollapseDriver {
    fn prepare(&mut self, _k: usize) {
        self.vel_before.clone_from(&self.sim.bodies.vel);
    }

    fn step(&mut self, _tr: &mut Tracer) -> Result<StepRecord, String> {
        self.sim.step().map_err(|e| e.to_string())
    }

    fn positions(&self) -> &[Vec3] {
        &self.sim.bodies.pos
    }

    fn accuracy(&self, solve_pos: &[Vec3]) -> Option<Accuracy> {
        let field = field_from_kick(&self.vel_before, &self.sim.bodies.vel, self.sim.dt);
        Some(gravity_accuracy(solve_pos, &self.sim.bodies.mass, &field))
    }

    fn energy(&self) -> Option<f64> {
        Some(collapse_energy(&self.sim.bodies))
    }
}

/// Traced: `GravitySim::step`, call by call.
pub struct CollapseReplica {
    core: Core<GravityKernel>,
    balancer: LoadBalancer,
    bodies: Bodies,
    dt: f64,
    last_field: Vec<Vec3>,
}

impl Stepper for CollapseReplica {
    fn step(&mut self, tr: &mut Tracer) -> Result<StepRecord, String> {
        let CollapseReplica {
            core,
            balancer,
            bodies,
            ..
        } = self;
        core.engine.recorder().set_step(core.steps_done as u64);
        let state = balancer.state();
        let s = core.engine.tree().s_value();
        let sol = tr
            .time("afmm.try_solve", || {
                core.engine.try_solve(&bodies.pos, &bodies.mass)
            })
            .map_err(|e| e.to_string())?;
        let counts = tr.time("afmm.counts", || core.engine.counts());
        let timing = core.predict_time_observe(&counts, tr)?;

        let dt = self.dt;
        tr.time("nbody.integrate", || {
            for i in 0..bodies.len() {
                bodies.vel[i] += sol.field[i] * (G * dt);
                let v = bodies.vel[i];
                bodies.pos[i] += v * dt;
            }
        });

        let mut t_lb = lbtime::rebin(&core.node, bodies.len());
        tr.time("octree.rebin", || core.engine.rebin(&bodies.pos));
        let report = tr.time("afmm.post_step", || {
            balancer.post_step(
                &mut core.engine,
                &core.model,
                &core.node,
                &bodies.pos,
                timing.t_cpu,
                timing.t_gpu,
            )
        });
        t_lb += report.lb_time;

        if !all_finite(&sol.field, &sol.pot) {
            return Err("non-finite solve output".into());
        }
        self.last_field = sol.field;
        Ok(core.finish_step(s, state, &timing, report, t_lb, counts))
    }

    fn positions(&self) -> &[Vec3] {
        &self.bodies.pos
    }

    fn accuracy(&self, solve_pos: &[Vec3]) -> Option<Accuracy> {
        Some(gravity_accuracy(
            solve_pos,
            &self.bodies.mass,
            &self.last_field,
        ))
    }

    fn energy(&self) -> Option<f64> {
        Some(collapse_energy(&self.bodies))
    }

    fn stats(&self) -> Option<&LoopStats> {
        Some(&self.core.stats)
    }

    fn probe(&mut self, tr: &mut Tracer) -> Option<Result<Probes, String>> {
        self.core
            .probe(&self.bodies.pos, Some(&self.bodies.mass), tr)
    }
}

// ---- track_1m ----------------------------------------------------------------

fn track_config() -> (HeteroNode, LbConfig) {
    (HeteroNode::system_a(10, 4), LbConfig::default())
}

/// Untraced: the library's `StrategyTracker` driver fed the analytic
/// trajectory.
pub struct TrackDriver<'a> {
    tracker: StrategyTracker<GravityKernel>,
    inputs: &'a Inputs,
    pos: Vec<Vec3>,
}

impl Stepper for TrackDriver<'_> {
    fn prepare(&mut self, k: usize) {
        self.inputs.trajectory(k, &mut self.pos);
    }

    fn step(&mut self, _tr: &mut Tracer) -> Result<StepRecord, String> {
        self.tracker.step(&self.pos).map_err(|e| e.to_string())
    }

    fn positions(&self) -> &[Vec3] {
        &self.pos
    }
}

/// Traced: `StrategyTracker::step`, call by call (no faults, no noise).
pub struct TrackReplica<'a> {
    core: Core<GravityKernel>,
    balancer: LoadBalancer,
    inputs: &'a Inputs,
    pos: Vec<Vec3>,
    filter_cpu: TimingFilter,
    filter_gpu: TimingFilter,
}

impl Stepper for TrackReplica<'_> {
    fn prepare(&mut self, k: usize) {
        self.inputs.trajectory(k, &mut self.pos);
    }

    fn step(&mut self, tr: &mut Tracer) -> Result<StepRecord, String> {
        let TrackReplica {
            core,
            balancer,
            pos,
            filter_cpu,
            filter_gpu,
            ..
        } = self;
        core.engine.recorder().set_step(core.steps_done as u64);
        let mut t_lb = 0.0;
        if core.steps_done > 0 {
            tr.time("octree.rebin", || core.engine.rebin(pos));
            t_lb += lbtime::rebin(&core.node, pos.len());
        }
        let state = balancer.state();
        let s = core.engine.tree().s_value();
        let counts = tr.time("octree.refresh", || core.engine.refresh_lists());
        let timing = core.predict_time_observe(&counts, tr)?;
        let (f_cpu, f_gpu) = tr.time("afmm.filter", || {
            (filter_cpu.push(timing.t_cpu), filter_gpu.push(timing.t_gpu))
        });
        let report = tr.time("afmm.post_step", || {
            balancer.post_step(&mut core.engine, &core.model, &core.node, pos, f_cpu, f_gpu)
        });
        if report.rebuilt || report.enforced || report.fgo_rounds > 0 {
            filter_cpu.reset();
            filter_gpu.reset();
        }
        t_lb += report.lb_time;
        Ok(core.finish_step(s, state, &timing, report, t_lb, counts))
    }

    fn positions(&self) -> &[Vec3] {
        &self.pos
    }

    fn stats(&self) -> Option<&LoopStats> {
        Some(&self.core.stats)
    }

    fn probe(&mut self, tr: &mut Tracer) -> Option<Result<Probes, String>> {
        self.core.probe(&self.pos, None, tr)
    }
}

// ---- construction -----------------------------------------------------------

/// Build the stepper for one run: the driver for the untraced run, the
/// call-by-call replica (with the program's telemetry attached to `rec`) for
/// the traced one. Construction is the first half of `setup_s`.
pub fn build<'a>(
    w: &Workload,
    inp: &'a Inputs,
    replica: bool,
    rec: &telemetry::Recorder,
) -> Box<dyn Stepper + 'a> {
    let domain = Some(inp.domain);
    match w.kind {
        Kind::PinnedGravity => {
            let dynamics = GravityDynamics {
                bodies: inp.bodies.clone(),
                lf: Leapfrog::new(inp.dt),
                started: false,
            };
            let kernel = GravityKernel::default();
            Box::new(Pinned::new(kernel, dynamics, inp, w.s, rec))
        }
        Kind::PinnedStokes => {
            let dynamics = StokesDynamics {
                pos: inp.bodies.pos.clone(),
                forces: inp.forces.clone(),
                dt: inp.dt,
            };
            let kernel = StokesletKernel::new(STOKES_EPSILON, STOKES_MU);
            Box::new(Pinned::new(kernel, dynamics, inp, w.s, rec))
        }
        Kind::Collapse => {
            let (node, cfg) = collapse_config();
            let bodies = inp.bodies.clone();
            if replica {
                let kernel = GravityKernel::new(COLLAPSE_SOFTENING);
                let (core, balancer) = balanced_core(kernel, node, cfg, &bodies.pos, inp, rec);
                Box::new(CollapseReplica {
                    core,
                    balancer,
                    bodies,
                    dt: inp.dt,
                    last_field: Vec::new(),
                })
            } else {
                let params = FmmParams::default();
                Box::new(CollapseDriver {
                    sim: GravitySim::new(
                        bodies,
                        G,
                        inp.dt,
                        COLLAPSE_SOFTENING,
                        params,
                        node,
                        Strategy::Full,
                        cfg,
                        domain,
                    ),
                    vel_before: Vec::new(),
                })
            }
        }
        Kind::Track => {
            let (node, cfg) = track_config();
            let mut pos = Vec::with_capacity(inp.bodies.len());
            inp.trajectory(0, &mut pos);
            let kernel = GravityKernel::default();
            if replica {
                let (core, balancer) = balanced_core(kernel, node, cfg, &pos, inp, rec);
                Box::new(TrackReplica {
                    core,
                    balancer,
                    inputs: inp,
                    pos,
                    filter_cpu: TimingFilter::default(),
                    filter_gpu: TimingFilter::default(),
                })
            } else {
                let params = FmmParams::default();
                Box::new(TrackDriver {
                    tracker: StrategyTracker::new(
                        kernel,
                        params,
                        node,
                        Strategy::Full,
                        cfg,
                        &pos,
                        domain,
                    ),
                    inputs: inp,
                    pos,
                })
            }
        }
    }
}

/// Engine + balancer as the library's drivers construct them.
fn balanced_core(
    kernel: GravityKernel,
    node: HeteroNode,
    cfg: LbConfig,
    pos: &[Vec3],
    inp: &Inputs,
    rec: &telemetry::Recorder,
) -> (Core<GravityKernel>, LoadBalancer) {
    let mut balancer = LoadBalancer::new(Strategy::Full, cfg);
    balancer.set_recorder(rec.clone());
    let (center, half_width) = inp.domain;
    let params = FmmParams::default();
    let engine = FmmEngine::with_domain(kernel, params, pos, balancer.s(), center, half_width);
    (Core::new(engine, node, rec), balancer)
}
