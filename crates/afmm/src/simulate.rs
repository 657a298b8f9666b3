use crate::balance::{lbtime, LbConfig, LbState, LoadBalancer, Strategy};
use crate::config::{FmmParams, HeteroNode};
use crate::cost::{CostModel, Prediction};
use crate::engine::FmmEngine;
use crate::error::Error;
use crate::exec::TimingReport;
use crate::filter::TimingFilter;
use fmm_math::{GravityKernel, Kernel, OpFlops};
use geom::Vec3;
use gpu_sim::{FaultEvent, FaultSchedule};
use nbody::Bodies;
use octree::OpCounts;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in the open interval (0, 1).
fn unit_open(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Deterministic lognormal multiplier `exp(σ·Z)`, `Z ~ N(0,1)` via
/// Box–Muller — the multiplicative timing jitter of real measurements.
fn lognormal(state: &mut u64, sigma: f64) -> f64 {
    let u1 = unit_open(state);
    let u2 = unit_open(state);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (sigma * z).exp()
}

/// Everything recorded about one simulated time step — the per-step series
/// behind the paper's Figs 8–10 and Table II.
#[derive(Clone, Copy, Debug)]
pub struct StepRecord {
    pub step: usize,
    /// Leaf capacity the tree enforced *during* this step (Fig 9's series).
    pub s: usize,
    /// Balancer state during the step.
    pub state: LbState,
    pub t_cpu: f64,
    pub t_gpu: f64,
    /// Modeled time of all load-balancing / maintenance work after the step.
    pub t_lb: f64,
    /// Whole-GPU-system SIMT efficiency (1.0 on CPU-only nodes).
    pub gpu_efficiency: f64,
    pub p2p_interactions: u64,
    pub m2l_ops: u64,
}

impl StepRecord {
    /// The paper's compute time: `max(CPU, GPU)`.
    pub fn compute(&self) -> f64 {
        self.t_cpu.max(self.t_gpu)
    }

    /// Total step time: compute plus load balancing.
    pub fn total(&self) -> f64 {
        self.compute() + self.t_lb
    }
}

/// Aggregates over a run — the rows of the paper's Table II.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunSummary {
    pub steps: usize,
    /// Σ compute time.
    pub total_compute: f64,
    /// Σ LB time.
    pub total_lb: f64,
    /// Mean total (compute + LB) per step.
    pub mean_total_per_step: f64,
    /// Largest single-step LB time.
    pub max_lb_step: f64,
    /// Largest single-step compute time.
    pub max_compute_step: f64,
}

impl RunSummary {
    /// Aggregate a run; empty input yields the all-zero summary (never NaN).
    pub fn from_records(records: &[StepRecord]) -> Self {
        if records.is_empty() {
            return RunSummary::default();
        }
        let steps = records.len();
        let total_compute: f64 = records.iter().map(StepRecord::compute).sum();
        let total_lb: f64 = records.iter().map(|r| r.t_lb).sum();
        RunSummary {
            steps,
            total_compute,
            total_lb,
            mean_total_per_step: (total_compute + total_lb) / steps as f64,
            max_lb_step: records.iter().map(|r| r.t_lb).fold(0.0, f64::max),
            max_compute_step: records.iter().map(StepRecord::compute).fold(0.0, f64::max),
        }
    }

    /// LB time as a fraction of compute time (Table II's "LB as % of
    /// Compute" divided by 100).
    pub fn lb_fraction(&self) -> f64 {
        if self.total_compute > 0.0 {
            self.total_lb / self.total_compute
        } else {
            0.0
        }
    }
}

/// One step as the tracker measured it: what its `maintain` closes the
/// step with.
struct Measured {
    /// Balancer state and leaf capacity the step ran under.
    state: LbState,
    s: usize,
    counts: OpCounts,
    timing: TimingReport,
    /// The model's forecast for the step, when telemetry is on.
    predicted: Option<Prediction>,
    /// The measured times: `timing`'s, disturbed by the fault script.
    t_cpu: f64,
    t_gpu: f64,
}

/// Replays a shared body trajectory through one load-balancing strategy,
/// producing that strategy's timing series without re-solving the physics.
///
/// The paper runs each strategy as its own simulation; since the three runs
/// evolve (numerically near-identical) trajectories and differ only in
/// decomposition bookkeeping, the reproduction computes the trajectory once
/// and feeds the same positions to one tracker per strategy. Each tracker
/// owns its own tree, cost model and balancer, so the timing dynamics —
/// which is what Figs 8/9 and Table II report — are produced by exactly the
/// paper's machinery.
pub struct StrategyTracker<K: Kernel> {
    engine: FmmEngine<K>,
    flops: OpFlops,
    model: CostModel,
    balancer: LoadBalancer,
    node: HeteroNode,
    records: Vec<StepRecord>,
    /// Injected disturbances, keyed by step index (see [`FaultSchedule`]).
    faults: FaultSchedule,
    /// Current external-CPU-load multiplier on measured CPU time.
    cpu_load: f64,
    /// Lognormal σ of the measurement jitter (0 = exact measurements).
    noise_sigma: f64,
    noise_state: u64,
    filter_cpu: TimingFilter,
    filter_gpu: TimingFilter,
    rec: telemetry::Recorder,
    /// Rolling prediction-vs-actual audit of the cost model (tentpole §3).
    audits: telemetry::AuditTrail,
}

impl<K: Kernel> StrategyTracker<K> {
    pub fn new(
        kernel: K,
        params: FmmParams,
        node: HeteroNode,
        strategy: Strategy,
        cfg: LbConfig,
        pos0: &[Vec3],
        domain: Option<(Vec3, f64)>,
    ) -> Self {
        let balancer = LoadBalancer::new(strategy, cfg);
        let s0 = balancer.s();
        let engine = match domain {
            Some((c, hw)) => FmmEngine::with_domain(kernel, params, pos0, s0, c, hw),
            None => FmmEngine::new(kernel, params, pos0, s0),
        };
        let flops = engine.kernel.op_flops(engine.expansion_ops());
        StrategyTracker {
            engine,
            flops,
            model: CostModel::new(),
            balancer,
            node,
            records: Vec::new(),
            faults: FaultSchedule::new(),
            cpu_load: 1.0,
            noise_sigma: 0.0,
            noise_state: 0x5DEE_CE66_D158_1F86,
            filter_cpu: TimingFilter::default(),
            filter_gpu: TimingFilter::default(),
            rec: telemetry::Recorder::disabled(),
            audits: telemetry::AuditTrail::new(),
        }
    }

    /// Attach a recorder after construction; shared (via clone) with the
    /// engine and the balancer. Emits a `run.config` header event so
    /// offline replay knows the bounds and thresholds the balancer was
    /// configured with.
    pub fn set_recorder(&mut self, rec: telemetry::Recorder) {
        self.engine.set_recorder(rec.clone());
        self.balancer.set_recorder(rec.clone());
        if rec.is_enabled() {
            let cfg = &self.balancer.cfg;
            rec.event(
                "run.config",
                vec![
                    (
                        "strategy",
                        telemetry::Value::Str(self.balancer.strategy().name().into()),
                    ),
                    ("s_min", telemetry::Value::U64(cfg.s_min as u64)),
                    ("s_max", telemetry::Value::U64(cfg.s_max as u64)),
                    ("eps_switch_s", telemetry::Value::F64(cfg.eps_switch_s)),
                    ("use_fgo", telemetry::Value::Bool(cfg.use_fgo)),
                ],
            );
        }
        self.rec = rec;
    }

    /// The tracker's telemetry handle.
    pub fn recorder(&self) -> &telemetry::Recorder {
        &self.rec
    }

    /// The rolling prediction-vs-actual audit trail.
    pub fn audits(&self) -> &telemetry::AuditTrail {
        &self.audits
    }

    /// Install the fault schedule; events fire at the start of the step
    /// whose index matches their `step` field.
    pub fn set_fault_schedule(&mut self, faults: FaultSchedule) {
        self.faults = faults;
    }

    /// Set the execution policy the tracked engine times its virtual solves
    /// under. Physics is unaffected; only the timing model changes. Emits
    /// an `exec.policy` event so trace consumers see the policy the
    /// subsequent steps ran under.
    pub fn set_exec_policy(&mut self, policy: crate::ExecPolicy) {
        self.engine.set_exec_policy(policy);
        if self.rec.is_enabled() {
            self.rec.event(
                "exec.policy",
                vec![("offload_pl", telemetry::Value::Bool(policy.offload_pl))],
            );
        }
    }

    /// The virtual node as disturbed so far (device status included).
    pub fn node(&self) -> &HeteroNode {
        &self.node
    }

    /// Start step `records.len()`: set the recorder's step clock and apply
    /// every fault event scheduled for the step to the tracked node. When
    /// the online device count changes, the timing filters start over: their
    /// samples timed another machine.
    fn open(&mut self) -> Result<(), Error> {
        let step_idx = self.records.len();
        self.rec.set_step(step_idx as u64);
        let online = self.node.num_online_gpus();
        let due: Vec<FaultEvent> = self.faults.events_at(step_idx).copied().collect();
        for ev in due {
            match ev {
                FaultEvent::ExternalCpuLoad { factor } => {
                    if !factor.is_finite() || factor <= 0.0 {
                        return Err(gpu_sim::Error::BadFactor { factor }.into());
                    }
                    self.cpu_load = factor;
                }
                FaultEvent::TimingNoise { sigma } => {
                    if !sigma.is_finite() || sigma < 0.0 {
                        return Err(gpu_sim::Error::BadFactor { factor: sigma }.into());
                    }
                    self.noise_sigma = sigma;
                }
                _ => {
                    let gpus = self
                        .node
                        .gpus
                        .as_mut()
                        .ok_or(Error::Gpu(gpu_sim::Error::NoGpus))?;
                    gpus.apply_event(&ev)?;
                }
            }
        }
        if self.node.num_online_gpus() != online {
            self.filter_cpu.reset();
            self.filter_gpu.reset();
        }
        Ok(())
    }

    /// Advance one step at the given positions: fire scheduled faults,
    /// re-bin moved bodies, time the solve on the (possibly degraded)
    /// virtual node, and feed the balancer *filtered* measurements.
    pub fn step(&mut self, pos: &[Vec3]) -> Result<StepRecord, Error> {
        self.open()?;
        let mut t_lb = 0.0;
        // Step 0 times the tree `new` built; later steps re-bin first.
        if !self.records.is_empty() {
            self.engine.rebin(pos);
            t_lb += lbtime::rebin(&self.node, pos.len());
        }
        let m = self.measure()?;
        // The balancer steers by outlier-filtered times so a lone spike
        // cannot fire its regression trigger.
        let steer = (self.filter_cpu.push(m.t_cpu), self.filter_gpu.push(m.t_gpu));
        Ok(self.maintain(pos, m, steer, t_lb))
    }

    /// Time the current tree on the (possibly degraded) virtual node, let
    /// the cost model observe it, and disturb the measurement as the fault
    /// script says.
    fn measure(&mut self) -> Result<Measured, Error> {
        let state = self.balancer.state();
        let s = self.engine.tree().s_value();
        let counts = self.engine.refresh_lists();
        // Predict with the model as trained through the *previous* step, on
        // this step's op counts — the forecast the balancer would steer by —
        // so the audit compares it against what this step actually took.
        let predicted = (self.rec.is_enabled() && self.model.is_observed())
            .then(|| self.model.predict(&counts, &self.node));
        let timing = self.engine.time_step(&self.flops, &self.node)?;
        self.model
            .observe(&counts, &timing, &self.flops, &self.node);
        // Disturb the *measurements* (not the model's view of the machine):
        // external CPU load stretches wall-clock CPU time; timing noise
        // jitters both sides multiplicatively.
        let mut t_cpu = timing.t_cpu * self.cpu_load;
        let mut t_gpu = timing.t_gpu;
        if self.noise_sigma > 0.0 {
            t_cpu *= lognormal(&mut self.noise_state, self.noise_sigma);
            t_gpu *= lognormal(&mut self.noise_state, self.noise_sigma);
        }
        if !t_cpu.is_finite() || !t_gpu.is_finite() {
            return Err(Error::NonFiniteTiming { t_cpu, t_gpu });
        }
        Ok(Measured {
            state,
            s,
            counts,
            timing,
            predicted,
            t_cpu,
            t_gpu,
        })
    }

    /// Close the step: the balancer maintains the tree at `pos`, steering by
    /// the `(t_cpu, t_gpu)` it is given; then the forecast is audited, the
    /// step's telemetry emitted and its record pushed. `t_lb` is the
    /// maintenance already paid this step.
    fn maintain(
        &mut self,
        pos: &[Vec3],
        m: Measured,
        (f_cpu, f_gpu): (f64, f64),
        mut t_lb: f64,
    ) -> StepRecord {
        let step_idx = self.records.len();
        let (counts, timing) = (&m.counts, &m.timing);
        let rep =
            self.balancer
                .post_step(&mut self.engine, &self.model, &self.node, pos, f_cpu, f_gpu);
        let acted = rep.rebuilt || rep.enforced || rep.fgo_rounds > 0;
        if acted {
            // The decomposition changed: historic samples time a dead tree.
            self.filter_cpu.reset();
            self.filter_gpu.reset();
        }
        t_lb += rep.lb_time;
        if let Some(pred) = m.predicted {
            let audit = pred.audit(step_idx as u64, timing, acted);
            if self.rec.is_enabled() {
                self.rec.event(
                    "audit.prediction",
                    vec![
                        ("pred_total", audit.pred_total().into()),
                        ("actual_total", audit.actual_total().into()),
                        ("rel_error", audit.rel_error().into()),
                        ("acted", acted.into()),
                    ],
                );
            }
            self.audits.push(audit);
        }
        if self.rec.is_enabled() {
            crate::exec::record_phase_spans(&self.rec, counts, &self.flops, &self.node, timing);
            if let Some(gpu) = timing.gpu.as_ref() {
                gpu.record_util_events(&self.rec);
            }
            // Per-step summary event: the replay validator's (and the Chrome
            // exporter's S-counter-track's) per-step anchor. `state` and `s`
            // describe the step as it ran — i.e. *before* any transition the
            // balancer made in post_step above.
            let step_fields = vec![
                ("s", telemetry::Value::U64(m.s as u64)),
                ("state", telemetry::Value::Str(m.state.name().into())),
                ("t_cpu", telemetry::Value::F64(m.t_cpu)),
                ("t_gpu", telemetry::Value::F64(m.t_gpu)),
                ("t_lb", telemetry::Value::F64(t_lb)),
                ("acted", telemetry::Value::Bool(acted)),
                (
                    "online_gpus",
                    telemetry::Value::U64(self.node.num_online_gpus() as u64),
                ),
                // The *undisturbed* scheduler makespan (no external-load
                // stretch, no noise): the anchor the replay validator
                // reconciles the per-phase spans against, which are
                // likewise derived from undisturbed timing.
                ("t_sched", telemetry::Value::F64(timing.t_cpu)),
            ];
            self.rec.event("step.record", step_fields);
        }
        let rec = StepRecord {
            step: step_idx,
            s: m.s,
            state: m.state,
            t_cpu: m.t_cpu,
            t_gpu: m.t_gpu,
            t_lb,
            gpu_efficiency: timing.gpu_efficiency(),
            p2p_interactions: counts.p2p_interactions,
            m2l_ops: counts.m2l_ops,
        };
        self.records.push(rec);
        rec
    }

    pub fn records(&self) -> &[StepRecord] {
        &self.records
    }

    pub fn summary(&self) -> RunSummary {
        RunSummary::from_records(&self.records)
    }

    pub fn balancer(&self) -> &LoadBalancer {
        &self.balancer
    }

    pub fn engine(&self) -> &FmmEngine<K> {
        &self.engine
    }

    /// Mutable engine access for the chaos harness's corruption hooks and
    /// the supervisor's healing rungs.
    pub fn engine_mut(&mut self) -> &mut FmmEngine<K> {
        &mut self.engine
    }

    // ---- resilience: checkpoint / restore / healing ----

    /// Serialize the complete tracker state — engine, cost model, balancer,
    /// filters, fault script, device status, noise RNG, step history and the
    /// current positions — as checkpoint text ([`crate::checkpoint`]).
    pub fn checkpoint(&self, pos: &[Vec3]) -> String {
        let snap = crate::checkpoint::TrackerSnapshot {
            engine: self.engine.checkpoint_state(),
            model: self.model,
            balancer: self.balancer.snapshot(),
            records: self.records.clone(),
            faults: self.faults.clone(),
            gpu_status: self.node.gpus.as_ref().map(|g| g.statuses().to_vec()),
            cpu_load: self.cpu_load,
            noise_sigma: self.noise_sigma,
            noise_state: self.noise_state,
            filter_cpu: self.filter_cpu.snapshot(),
            filter_gpu: self.filter_gpu.snapshot(),
            pos: pos.to_vec(),
        };
        crate::checkpoint::tracker_to_json(&snap)
    }

    /// Rebuild a tracker from checkpoint text. The caller supplies the
    /// *configuration* — the (stateless) kernel and the node as configured —
    /// and the checkpoint supplies every piece of *state*, including the
    /// device statuses the fault script had produced and the body positions
    /// at checkpoint time (returned alongside, so a driver whose live buffer
    /// was corrupted can resume from a known-good trajectory point).
    ///
    /// A restored tracker continues **bit-identically** with the run it was
    /// captured from: the first refresh builds the interaction lists the
    /// run held (a plan is a function of its tree), the noise RNG state and
    /// filter windows are exact, and all floats round-trip by bit pattern.
    /// Telemetry (recorder, audits) restarts fresh — it observes the
    /// trajectory but never feeds back into it.
    /// The [`crate::ExecPolicy`] is configuration too, and *does* feed
    /// back (it decides which device P2M/L2P are timed on): the restored
    /// engine starts from the default, so a caller that ran under another
    /// policy must set it again before stepping, as
    /// [`crate::Supervisor::restore_from_checkpoint`] does.
    pub fn restore(
        kernel: K,
        mut node: HeteroNode,
        text: &str,
    ) -> Result<(Self, Vec<Vec3>), Error> {
        let snap = crate::checkpoint::tracker_from_json(text)?;
        let engine = FmmEngine::restore_state(kernel, snap.engine)?;
        if snap.pos.len() != engine.tree().num_bodies() {
            return Err(Error::Checkpoint(format!(
                "checkpoint has {} positions but its tree holds {} bodies",
                snap.pos.len(),
                engine.tree().num_bodies()
            )));
        }
        match (&snap.gpu_status, node.gpus.as_mut()) {
            (Some(saved), Some(gpus)) => gpus.restore_statuses(saved)?,
            (Some(_), None) => {
                return Err(Error::Checkpoint(
                    "checkpoint carries GPU status but the restore node has no GPUs".into(),
                ))
            }
            (None, Some(_)) => {
                return Err(Error::Checkpoint(
                    "checkpoint is CPU-only but the restore node has GPUs".into(),
                ))
            }
            (None, None) => {}
        }
        // The same bounds `apply_faults` holds a live run to.
        if !snap.cpu_load.is_finite() || snap.cpu_load <= 0.0 {
            return Err(Error::Checkpoint(format!(
                "CPU load factor {} is not finite and positive",
                snap.cpu_load
            )));
        }
        if !snap.noise_sigma.is_finite() || snap.noise_sigma < 0.0 {
            return Err(Error::Checkpoint(format!(
                "timing-noise sigma {} is not finite and non-negative",
                snap.noise_sigma
            )));
        }
        // Every price the balancer makes multiplies by these.
        let coeffs = snap.model.coefficients();
        if let Some((name, c)) = coeffs.iter().find(|(_, c)| !c.is_finite() || *c < 0.0) {
            return Err(Error::Checkpoint(format!(
                "cost-model coefficient {name} = {c} is not finite and non-negative"
            )));
        }
        let filter_cpu = TimingFilter::from_snapshot(snap.filter_cpu).map_err(Error::Checkpoint)?;
        let filter_gpu = TimingFilter::from_snapshot(snap.filter_gpu).map_err(Error::Checkpoint)?;
        let balancer = LoadBalancer::from_snapshot(snap.balancer).map_err(Error::Checkpoint)?;
        let flops = engine.kernel.op_flops(engine.expansion_ops());
        let tracker = StrategyTracker {
            engine,
            flops,
            model: snap.model,
            balancer,
            node,
            records: snap.records,
            faults: snap.faults,
            cpu_load: snap.cpu_load,
            noise_sigma: snap.noise_sigma,
            noise_state: snap.noise_state,
            filter_cpu,
            filter_gpu,
            rec: telemetry::Recorder::disabled(),
            audits: telemetry::AuditTrail::new(),
        };
        Ok((tracker, snap.pos))
    }

    /// Healing rung: throw away the (possibly corrupted) tree and plan and
    /// re-derive both from the given positions at the balancer's current S.
    /// The decomposition changes, so the timing filters are reset exactly as
    /// they are after any balancer-driven rebuild.
    pub fn heal_rebuild(&mut self, pos: &[Vec3]) {
        let s = self.balancer.s();
        self.engine.build_fresh(pos, s);
        self.filter_cpu.reset();
        self.filter_gpu.reset();
    }

    /// Last-line degradation: drop the GPU system and run everything —
    /// including P2P — on the CPU cores. The balancer sees the online count
    /// fall to zero on the next step and sweeps S for the cores alone.
    /// Irreversible for this tracker; a later restore from checkpoint brings
    /// the GPUs back.
    pub fn force_cpu_only(&mut self) {
        self.node.gpus = None;
        self.filter_cpu.reset();
        self.filter_gpu.reset();
    }
}

/// A fully numeric gravitational simulation on the heterogeneous node:
/// each step solves the AFMM (exact physics), integrates the bodies
/// (semi-implicit Euler, the per-step-force variant of leapfrog), and runs
/// the balancer's maintenance — the paper's end-to-end loop. Timing,
/// balancing, auditing, telemetry and records are the [`StrategyTracker`]'s
/// it owns: a recorder or a fault script attaches through
/// [`GravitySim::tracker_mut`].
pub struct GravitySim {
    pub bodies: Bodies,
    pub g: f64,
    pub dt: f64,
    tracker: StrategyTracker<GravityKernel>,
}

impl GravitySim {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        bodies: Bodies,
        g: f64,
        dt: f64,
        softening: f64,
        params: FmmParams,
        node: HeteroNode,
        strategy: Strategy,
        cfg: LbConfig,
        domain: Option<(Vec3, f64)>,
    ) -> Self {
        bodies.validate().expect("invalid body set");
        let kernel = GravityKernel::new(softening);
        let tracker =
            StrategyTracker::new(kernel, params, node, strategy, cfg, &bodies.pos, domain);
        GravitySim {
            bodies,
            g,
            dt,
            tracker,
        }
    }

    /// One full time step: solve, integrate, maintain — the tracker's own
    /// steps around the solve and the position update, with two deliberate
    /// differences from [`StrategyTracker::step`]. The tree is maintained on
    /// the positions *after* the update (the paper's order; the tracker
    /// maintains on the positions it timed), and the balancer steers by the
    /// raw times, not filtered ones.
    pub fn step(&mut self) -> Result<StepRecord, Error> {
        let t = &mut self.tracker;
        t.open()?;
        let sol = t.engine.try_solve(&self.bodies.pos, &self.bodies.mass)?;
        let m = t.measure()?;

        // Semi-implicit Euler: kick with the fresh forces, then drift.
        let (g, dt) = (self.g, self.dt);
        for i in 0..self.bodies.len() {
            self.bodies.vel[i] += sol.field[i] * (g * dt);
            let v = self.bodies.vel[i];
            self.bodies.pos[i] += v * dt;
        }

        let t_lb = lbtime::rebin(&t.node, self.bodies.len());
        t.engine.rebin(&self.bodies.pos);
        let raw = (m.t_cpu, m.t_gpu);
        Ok(t.maintain(&self.bodies.pos, m, raw, t_lb))
    }

    /// The tracker that times, balances and records this simulation.
    pub fn tracker(&self) -> &StrategyTracker<GravityKernel> {
        &self.tracker
    }

    /// Mutable tracker access: attach a recorder or a fault script.
    pub fn tracker_mut(&mut self) -> &mut StrategyTracker<GravityKernel> {
        &mut self.tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::{collapsing_plummer, plummer, total_energy, total_momentum};

    fn small_cfg() -> LbConfig {
        LbConfig {
            eps_switch_s: 2e-3,
            ..Default::default()
        }
    }

    #[test]
    fn gravity_sim_conserves_reasonably() {
        let b = plummer(400, 1.0, 1.0, 501);
        let e0 = total_energy(&b, 1.0, 0.05).total();
        let p0 = total_momentum(&b);
        let mut sim = GravitySim::new(
            b,
            1.0,
            0.002,
            0.05,
            FmmParams {
                order: 5,
                ..Default::default()
            },
            HeteroNode::system_a(10, 2),
            Strategy::Full,
            small_cfg(),
            None,
        );
        for _ in 0..50 {
            sim.step().unwrap();
        }
        let e1 = total_energy(&sim.bodies, 1.0, 0.05).total();
        let p1 = total_momentum(&sim.bodies);
        assert!(
            ((e1 - e0) / e0).abs() < 0.05,
            "energy drift {} -> {}",
            e0,
            e1
        );
        assert!((p1 - p0).norm() < 1e-3, "momentum drift {:?}", p1 - p0);
    }

    #[test]
    fn tracker_produces_consistent_records() {
        let setup = collapsing_plummer(2000, 1.0, 502);
        let mut tracker = StrategyTracker::new(
            fmm_math::GravityKernel::default(),
            FmmParams::default(),
            HeteroNode::system_a(10, 2),
            Strategy::Full,
            small_cfg(),
            &setup.bodies.pos,
            Some((setup.domain_center, setup.domain_half_width)),
        );
        // Feed a slowly contracting trajectory.
        let mut pos = setup.bodies.pos.clone();
        for i in 0..30 {
            let rec = tracker.step(&pos).unwrap();
            assert_eq!(rec.step, i);
            assert!(rec.t_cpu >= 0.0 && rec.t_gpu >= 0.0 && rec.t_lb >= 0.0);
            assert!(rec.compute() > 0.0);
            assert!(rec.s >= 1);
            for p in &mut pos {
                *p *= 0.995;
            }
        }
        let summary = tracker.summary();
        assert_eq!(summary.steps, 30);
        assert!(summary.total_compute > 0.0);
        assert!(summary.lb_fraction() >= 0.0);
    }

    /// `GravitySim::step` ends with `rebin` and (when the balancer does not
    /// act) no refresh, so its engine is checkpointed with a live plan one
    /// count reconciliation behind the tree. Such a snapshot must restore,
    /// and the restored engine — whose first refresh builds its plan from
    /// the tree — must continue bit-identically.
    #[test]
    fn engine_checkpoint_between_rebin_and_refresh_resumes_bit_identically() {
        let mk = || {
            GravitySim::new(
                plummer(900, 1.0, 1.0, 508),
                1.0,
                0.01,
                0.05,
                FmmParams {
                    order: 4,
                    ..Default::default()
                },
                HeteroNode::system_a(10, 2),
                Strategy::Full,
                small_cfg(),
                None,
            )
        };
        let (mut whole, mut resumed) = (mk(), mk());
        // Debug-prints floats shortest-round-trip, so equal text is equal bits.
        let step_both = |a: &mut GravitySim, b: &mut GravitySim| {
            let (ra, rb) = (a.step().unwrap(), b.step().unwrap());
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        };
        let mut steps = 0;
        // Three steps, then on to the first state the bug lived in: a live
        // plan snapshotted with its counts pending.
        loop {
            step_both(&mut whole, &mut resumed);
            steps += 1;
            if steps >= 3 && whole.tracker.engine.plan_state == crate::engine::PlanState::Rebinned {
                break;
            }
            assert!(steps < 40, "balancer never left a live plan pending");
        }
        let snap = whole.tracker.engine.checkpoint_state();
        whole
            .tracker
            .engine
            .audit_plan()
            .expect("pending counts are not rot");

        let text = crate::checkpoint::engine_to_json(&snap);
        let snap = crate::checkpoint::engine_from_json(&text).unwrap();
        let t = &mut resumed.tracker;
        t.engine =
            FmmEngine::restore_state(t.engine.kernel, snap).expect("a mid-step snapshot restores");
        t.engine.audit_tree().unwrap();

        for _ in 0..3 {
            step_both(&mut whole, &mut resumed);
            assert_eq!(whole.bodies.pos, resumed.bodies.pos);
            assert_eq!(whole.bodies.vel, resumed.bodies.vel);
        }
    }

    #[test]
    fn tracker_applies_scheduled_faults() {
        let b = plummer(1500, 1.0, 1.0, 506);
        let mut tracker = StrategyTracker::new(
            fmm_math::GravityKernel::default(),
            FmmParams::default(),
            HeteroNode::system_a(10, 2),
            Strategy::Full,
            small_cfg(),
            &b.pos,
            None,
        );
        let faults = FaultSchedule::new()
            .with(2, FaultEvent::TimingNoise { sigma: 0.05 })
            .with(3, FaultEvent::ExternalCpuLoad { factor: 2.0 })
            .with(5, FaultEvent::GpuDropout { device: 1 })
            .with(8, FaultEvent::GpuRecover { device: 1 });
        tracker.set_fault_schedule(faults);
        for i in 0..10 {
            let rec = tracker.step(&b.pos).unwrap();
            assert!(rec.t_cpu.is_finite() && rec.t_gpu.is_finite());
            let online = tracker.node().num_online_gpus();
            if (5..8).contains(&i) {
                assert_eq!(online, 1, "device 1 offline during steps 5..8");
            } else {
                assert_eq!(online, 2, "both devices online at step {i}");
            }
        }
    }

    /// A dropout in a settled run: the step that sees it must steer the
    /// balancer by its own measured times, not by a median of samples
    /// timed on the machine that was.
    #[test]
    fn a_device_change_restarts_the_timing_filters() {
        let b = plummer(6000, 1.0, 1.0, 7001);
        let mut t = StrategyTracker::new(
            fmm_math::GravityKernel::default(),
            FmmParams::default(),
            HeteroNode::system_a(10, 2),
            Strategy::Full,
            small_cfg(),
            &b.pos,
            None,
        );
        t.set_fault_schedule(FaultSchedule::new().with(45, FaultEvent::GpuDropout { device: 1 }));
        for _ in 0..45 {
            t.step(&b.pos).unwrap();
        }
        assert_eq!(t.balancer().state(), LbState::Observation);
        assert_eq!(
            t.filter_gpu.samples(),
            5,
            "premise: a full pre-fault window"
        );
        let before = *t.records().last().unwrap();
        // Step 45 as `step` runs it, up to the times `maintain` passes on
        // to `post_step`.
        t.open().unwrap();
        t.engine.rebin(&b.pos);
        let m = t.measure().unwrap();
        assert_ne!(m.t_gpu, before.t_gpu, "premise: the dropout moves t_gpu");
        let steer = (t.filter_cpu.push(m.t_cpu), t.filter_gpu.push(m.t_gpu));
        assert_eq!(steer, (m.t_cpu, m.t_gpu));
    }

    /// FGO's gate reads the model's prediction of the settled tree, which
    /// is free: with a threshold no gap reaches, a run with FGO on pays
    /// nothing for it and records exactly what the run with FGO off does.
    #[test]
    fn a_shut_fgo_gate_costs_nothing() {
        let b = plummer(3000, 1.0, 1.0, 7002);
        let run = |use_fgo: bool| {
            let cfg = LbConfig {
                eps_switch_s: 1.0,
                use_fgo,
                ..Default::default()
            };
            let mut t = StrategyTracker::new(
                fmm_math::GravityKernel::default(),
                FmmParams::default(),
                HeteroNode::system_a(10, 2),
                Strategy::Full,
                cfg,
                &b.pos,
                None,
            );
            for _ in 0..10 {
                t.step(&b.pos).unwrap();
            }
            assert_eq!(t.balancer().state(), LbState::Observation);
            t.records().to_vec()
        };
        for (on, off) in run(true).iter().zip(run(false).iter()) {
            // Debug-prints floats shortest-round-trip: equal text is equal bits.
            assert_eq!(format!("{on:?}"), format!("{off:?}"));
        }
    }

    #[test]
    fn tracker_rejects_invalid_fault_parameters() {
        let b = plummer(500, 1.0, 1.0, 507);
        let mut tracker = StrategyTracker::new(
            fmm_math::GravityKernel::default(),
            FmmParams::default(),
            HeteroNode::system_a(4, 1),
            Strategy::Full,
            small_cfg(),
            &b.pos,
            None,
        );
        tracker.set_fault_schedule(
            FaultSchedule::new().with(0, FaultEvent::ExternalCpuLoad { factor: -1.0 }),
        );
        assert!(
            tracker.step(&b.pos).is_err(),
            "negative load factor must error"
        );
    }

    #[test]
    fn full_strategy_beats_static_on_concentrating_workload() {
        // The core claim of the paper's §IX.A at reduced scale: when the
        // dense region migrates out from under the frozen tree's fine cells,
        // the frozen-S strategy's near-field work blows up while the full
        // balancer re-decomposes and stays fast.
        // Timing-only trackers, so a near-experiment scale is affordable;
        // below ~15k bodies the virtual GPUs are so oversized that even a
        // fully degenerate (all-pairs) decomposition stays fast and the
        // strategies cannot separate.
        let setup = collapsing_plummer(20000, 1.0, 503);
        let node = HeteroNode::system_a(10, 2);
        let mk = |strategy| {
            StrategyTracker::new(
                fmm_math::GravityKernel::default(),
                FmmParams::default(),
                node.clone(),
                strategy,
                small_cfg(),
                &setup.bodies.pos,
                Some((setup.domain_center, setup.domain_half_width)),
            )
        };
        let mut t1 = mk(Strategy::StaticS);
        let mut t3 = mk(Strategy::Full);
        // The cloud contracts toward an off-center point (where the initial
        // adaptive tree is coarse), stopping while still extended — the
        // non-self-similar density evolution the paper's collapse produces.
        let clump = geom::Vec3::new(8.0, 8.0, 8.0);
        let mut pos = setup.bodies.pos.clone();
        let mut late_static = 0.0;
        let mut late_full = 0.0;
        for step in 0..60 {
            let r1 = t1.step(&pos).unwrap();
            let r3 = t3.step(&pos).unwrap();
            if step >= 45 {
                late_static += r1.compute();
                late_full += r3.compute();
            }
            if step < 28 {
                for p in &mut pos {
                    *p = *p + (clump - *p) * 0.05;
                }
            }
        }
        let s1 = t1.summary();
        let s3 = t3.summary();
        assert!(
            s3.mean_total_per_step < s1.mean_total_per_step,
            "full {} vs static {}",
            s3.mean_total_per_step,
            s1.mean_total_per_step
        );
        assert!(
            late_full * 1.4 < late_static,
            "settled regime: full {late_full} should be well below static {late_static}"
        );
    }

    #[test]
    fn summary_math() {
        let recs = vec![
            StepRecord {
                step: 0,
                s: 32,
                state: LbState::Search,
                t_cpu: 1.0,
                t_gpu: 2.0,
                t_lb: 0.5,
                gpu_efficiency: 0.9,
                p2p_interactions: 10,
                m2l_ops: 5,
            },
            StepRecord {
                step: 1,
                s: 32,
                state: LbState::Observation,
                t_cpu: 3.0,
                t_gpu: 1.0,
                t_lb: 0.0,
                gpu_efficiency: 0.8,
                p2p_interactions: 10,
                m2l_ops: 5,
            },
        ];
        let s = RunSummary::from_records(&recs);
        assert_eq!(s.steps, 2);
        assert_eq!(s.total_compute, 5.0);
        assert_eq!(s.total_lb, 0.5);
        assert_eq!(s.max_lb_step, 0.5);
        assert_eq!(s.max_compute_step, 3.0);
        assert!((s.lb_fraction() - 0.1).abs() < 1e-15);
        assert!((s.mean_total_per_step - 2.75).abs() < 1e-15);
    }

    #[test]
    fn summary_of_empty_run_is_all_zero() {
        let s = RunSummary::from_records(&[]);
        assert_eq!(s.steps, 0);
        assert_eq!(s.total_compute, 0.0);
        assert_eq!(s.total_lb, 0.0);
        assert_eq!(s.mean_total_per_step, 0.0);
        assert_eq!(s.max_lb_step, 0.0);
        assert_eq!(s.max_compute_step, 0.0);
        assert_eq!(s.lb_fraction(), 0.0);
        assert!(
            s.mean_total_per_step.is_finite(),
            "empty summary must not produce NaN"
        );
    }

    #[test]
    fn telemetry_tracker_records_spans_and_audits() {
        let setup = collapsing_plummer(3000, 1.0, 508);
        let rec = telemetry::Recorder::enabled();
        let sink = telemetry::VecSink::new();
        rec.set_sink(sink.clone());
        let mut tracker = StrategyTracker::new(
            fmm_math::GravityKernel::default(),
            FmmParams::default(),
            HeteroNode::system_a(10, 2),
            Strategy::Full,
            small_cfg(),
            &setup.bodies.pos,
            Some((setup.domain_center, setup.domain_half_width)),
        );
        tracker.set_recorder(rec.clone());
        let mut pos = setup.bodies.pos.clone();
        for _ in 0..12 {
            tracker.step(&pos).unwrap();
            for p in &mut pos {
                *p *= 0.97;
            }
        }
        // All five far-field phases plus P2P appear as spans.
        for name in [
            "phase.p2m",
            "phase.m2m",
            "phase.m2l",
            "phase.l2l",
            "phase.l2p",
            "phase.p2p",
        ] {
            assert!(
                !rec.events_named(name).is_empty(),
                "missing phase span {name}"
            );
        }
        // The balancer's flight recorder fired (solve spans are exercised by
        // the numeric-solve path; the tracker times steps virtually).
        assert!(
            !rec.events_named("lb.transition").is_empty(),
            "a Full-strategy run must leave Search at least once"
        );
        // One audit per step once the model has observed (all but step 0).
        assert_eq!(tracker.audits().len(), 11);
        let stats = tracker.audits().stats();
        assert!(stats.count == 11 && stats.median.is_finite());
        // Events carry the logical step index and reached the sink too.
        let last = rec.events();
        assert!(last.iter().any(|e| e.step > 0));
        assert!(sink.lines().len() >= last.len());
    }

    #[test]
    fn telemetry_disabled_changes_nothing() {
        let setup = collapsing_plummer(2000, 1.0, 509);
        let mk = |rec: Option<telemetry::Recorder>| {
            let mut t = StrategyTracker::new(
                fmm_math::GravityKernel::default(),
                FmmParams::default(),
                HeteroNode::system_a(10, 2),
                Strategy::Full,
                small_cfg(),
                &setup.bodies.pos,
                Some((setup.domain_center, setup.domain_half_width)),
            );
            if let Some(rec) = rec {
                t.set_recorder(rec);
            }
            t
        };
        let mut plain = mk(None);
        let mut traced = mk(Some(telemetry::Recorder::enabled()));
        let mut pos = setup.bodies.pos.clone();
        for _ in 0..8 {
            let a = plain.step(&pos).unwrap();
            let b = traced.step(&pos).unwrap();
            assert_eq!(a.s, b.s);
            assert_eq!(a.state, b.state);
            assert_eq!(a.t_cpu.to_bits(), b.t_cpu.to_bits());
            assert_eq!(a.t_gpu.to_bits(), b.t_gpu.to_bits());
            assert_eq!(a.t_lb.to_bits(), b.t_lb.to_bits());
            for p in &mut pos {
                *p *= 0.98;
            }
        }
        assert!(
            plain.audits().is_empty(),
            "disabled telemetry must not pay for predictions"
        );
    }
}
