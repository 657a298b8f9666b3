//! End-to-end resilience: a device drops out of a live run and the full
//! strategy's balancer must detect it, re-partition across the survivors,
//! and settle at a sane operating point — plus property tests of the
//! outlier-robust timing filter that feeds the balancer.

use afmm_repro::prelude::*;
use proptest::prelude::{prop, prop_assert, proptest, ProptestConfig, Strategy as PropStrategy};

fn tracker(
    node: HeteroNode,
    strategy: afmm::Strategy,
    pos: &[Vec3],
) -> StrategyTracker<GravityKernel> {
    StrategyTracker::new(
        GravityKernel::default(),
        FmmParams::default(),
        node,
        strategy,
        LbConfig {
            eps_switch_s: 2e-3,
            ..Default::default()
        },
        pos,
        None,
    )
}

/// The steps at which the tracker's balancer answered a device-count
/// change (its `lb.recovery` events).
fn recovery_steps(t: &StrategyTracker<GravityKernel>) -> Vec<u64> {
    let events = t.recorder().events_named("lb.recovery");
    events.iter().map(|e| e.step).collect()
}

/// Drop GPU 1 of 2 mid-run: the balancer must enter recovery, re-converge
/// within a bounded number of steps, and end with compute within 2x the
/// pre-fault steady state.
#[test]
fn dropout_of_one_gpu_reconverges_within_bound() {
    let b = nbody::plummer(6000, 1.0, 1.0, 7001);
    let mut t = tracker(HeteroNode::system_a(10, 2), afmm::Strategy::Full, &b.pos);
    t.set_recorder(Recorder::enabled());
    let mut sched = FaultSchedule::new();
    sched.push(45, FaultEvent::GpuDropout { device: 1 });
    t.set_fault_schedule(sched);

    let mut computes = Vec::new();
    let mut saw_recovery = false;
    let mut settled_after = None;
    for i in 0..110 {
        let rec = t.step(&b.pos).unwrap();
        computes.push(rec.compute());
        if saw_recovery && settled_after.is_none() && rec.state == LbState::Observation {
            settled_after = Some(i);
        }
        saw_recovery = recovery_steps(&t) == [45];
    }
    assert_eq!(t.node().num_online_gpus(), 1, "device 1 must stay offline");
    assert!(
        saw_recovery,
        "the dropout step must answer with lb.recovery"
    );
    let settled = settled_after.expect("balancer must re-settle into Observation");
    assert!(
        settled - 45 <= 45,
        "re-convergence took {} steps",
        settled - 45
    );

    let steady_before: f64 = computes[35..45].iter().sum::<f64>() / 10.0;
    let steady_after: f64 = computes[100..].iter().sum::<f64>() / 10.0;
    assert!(
        steady_after <= 2.0 * steady_before,
        "post-fault steady state {steady_after} vs pre-fault {steady_before}"
    );
    assert!(computes.iter().all(|c| c.is_finite() && *c > 0.0));
}

/// The supervisor's last rung before a restore drops the GPU system outright
/// ([`StrategyTracker::force_cpu_only`]): the balancer must see the online
/// count fall to zero on the next step, as when the last device drops out,
/// and settle on the CPU-only sweep's S.
#[test]
fn forced_cpu_only_is_seen_as_a_device_change() {
    let b = nbody::plummer(6000, 1.0, 1.0, 7001);
    let mut t = tracker(HeteroNode::system_a(10, 2), afmm::Strategy::Full, &b.pos);
    t.set_recorder(Recorder::enabled());
    for _ in 0..40 {
        t.step(&b.pos).unwrap();
    }
    t.force_cpu_only();
    t.step(&b.pos).unwrap();
    let events = t.recorder().events_named("lb.recovery");
    assert_eq!(events.len(), 1, "the CPU-only rung must fire lb.recovery");
    assert_eq!(
        (events[0].step, events[0].field_u64("online")),
        (40, Some(0))
    );
    assert_eq!(t.balancer().state(), LbState::Observation);
    // The sweep, run afresh on the same positions and the same cores.
    let cfg = t.balancer().cfg;
    let mut fresh = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 64);
    let (swept, _, _) = search_best_s_cpu_only(&mut fresh, t.node(), &b.pos, &cfg);
    assert_eq!(
        (t.balancer().s(), t.engine().tree().s_value()),
        (swept, swept)
    );
}

/// Losing every GPU must not abort the run: the tracker falls back to a
/// CPU-only plan and keeps producing finite timings.
#[test]
fn losing_all_gpus_falls_back_to_cpu() {
    let b = nbody::plummer(3000, 1.0, 1.0, 7002);
    let mut t = tracker(HeteroNode::system_a(4, 1), afmm::Strategy::Full, &b.pos);
    let mut sched = FaultSchedule::new();
    sched.push(25, FaultEvent::GpuDropout { device: 0 });
    t.set_fault_schedule(sched);
    for i in 0..40 {
        let rec = t.step(&b.pos).unwrap();
        assert!(rec.compute().is_finite() && rec.compute() > 0.0);
        if i >= 25 {
            assert_eq!(rec.t_gpu, 0.0, "no GPU time with every device offline");
        }
    }
    assert_eq!(t.node().num_online_gpus(), 0);
}

/// Every fault class, fired into every strategy, must degrade service
/// rather than panic or error out.
#[test]
fn no_fault_class_panics_any_strategy() {
    let b = nbody::plummer(2000, 1.0, 1.0, 7003);
    let classes: Vec<(&str, Vec<(usize, FaultEvent)>)> = vec![
        ("dropout", vec![(8, FaultEvent::GpuDropout { device: 0 })]),
        (
            "drop_recover",
            vec![
                (8, FaultEvent::GpuDropout { device: 1 }),
                (16, FaultEvent::GpuRecover { device: 1 }),
            ],
        ),
        (
            "slowdown",
            vec![(
                8,
                FaultEvent::GpuSlowdown {
                    device: 0,
                    factor: 4.0,
                },
            )],
        ),
        (
            "cpu_load",
            vec![(8, FaultEvent::ExternalCpuLoad { factor: 3.0 })],
        ),
        ("noise", vec![(8, FaultEvent::TimingNoise { sigma: 0.2 })]),
    ];
    for (name, faults) in classes {
        for strategy in [
            afmm::Strategy::StaticS,
            afmm::Strategy::EnforceOnly,
            afmm::Strategy::Full,
        ] {
            let mut t = tracker(HeteroNode::system_a(6, 2), strategy, &b.pos);
            let mut sched = FaultSchedule::new();
            for (step, ev) in &faults {
                sched.push(*step, *ev);
            }
            t.set_fault_schedule(sched);
            for _ in 0..30 {
                let rec = t
                    .step(&b.pos)
                    .unwrap_or_else(|e| panic!("{name}/{strategy:?} errored: {e}"));
                assert!(
                    rec.compute().is_finite(),
                    "{name}/{strategy:?} non-finite compute"
                );
            }
        }
    }
}

/// A recovered device is folded back in: throughput returns to the
/// neighborhood of the pre-fault steady state.
#[test]
fn recover_event_restores_capacity() {
    let b = nbody::plummer(4000, 1.0, 1.0, 7004);
    let mut t = tracker(HeteroNode::system_a(10, 2), afmm::Strategy::Full, &b.pos);
    let mut sched = FaultSchedule::new();
    sched.push(40, FaultEvent::GpuDropout { device: 1 });
    sched.push(41, FaultEvent::GpuRecover { device: 1 });
    t.set_fault_schedule(sched);
    let mut computes = Vec::new();
    for _ in 0..90 {
        computes.push(t.step(&b.pos).unwrap().compute());
    }
    assert_eq!(t.node().num_online_gpus(), 2);
    let before: f64 = computes[30..40].iter().sum::<f64>() / 10.0;
    let after: f64 = computes[80..].iter().sum::<f64>() / 10.0;
    assert!(
        after <= 1.5 * before,
        "capacity not restored: {before} -> {after}"
    );
}

fn arb_times(max_n: usize) -> impl PropStrategy<Value = Vec<f64>> {
    prop::collection::vec(1e-6f64..10.0, 1..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scaling every sample by a positive constant scales the estimate by
    /// the same constant (the filter imposes no absolute time scale).
    #[test]
    fn filter_is_scale_equivariant(times in arb_times(24), scale in 1e-3f64..1e3) {
        let mut a = TimingFilter::default();
        let mut b = TimingFilter::default();
        for t in &times {
            a.push(*t);
            b.push(*t * scale);
        }
        let (ea, eb) = (a.estimate().unwrap(), b.estimate().unwrap());
        prop_assert!((eb - ea * scale).abs() <= 1e-9 * eb.abs().max(ea.abs() * scale));
    }

    /// Garbage in (NaN, infinities, zeros, negatives) never panics and
    /// never corrupts the estimate into a non-finite or negative value.
    #[test]
    fn filter_never_panics_or_corrupts_on_garbage(
        raw in prop::collection::vec(
            prop::strategy::Union::new(vec![
                (-10.0f64..10.0).boxed(),
                prop::strategy::Just(f64::NAN).boxed(),
                prop::strategy::Just(f64::INFINITY).boxed(),
                prop::strategy::Just(f64::NEG_INFINITY).boxed(),
                prop::strategy::Just(0.0f64).boxed(),
            ]),
            0..32,
        )
    ) {
        let mut f = TimingFilter::default();
        for r in &raw {
            let out = f.push(*r);
            prop_assert!(out.is_finite() || f.samples() == 0);
        }
        if let Some(e) = f.estimate() {
            prop_assert!(e.is_finite() && e >= 0.0);
        }
    }

    /// The filter's estimate always stays within the range of the samples
    /// it accepted (medians and convex EWMA mixes cannot extrapolate).
    #[test]
    fn filter_estimate_stays_in_sample_range(times in arb_times(24)) {
        let mut f = TimingFilter::default();
        for t in &times {
            f.push(*t);
        }
        let lo = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let e = f.estimate().unwrap();
        prop_assert!(e >= lo - 1e-12 && e <= hi + 1e-12);
    }

    /// Fault schedules never fire events at the wrong step, whatever order
    /// they were pushed in.
    #[test]
    fn schedule_fires_exactly_at_its_step(steps in prop::collection::vec(0usize..256, 0..16)) {
        let mut sched = FaultSchedule::new();
        for s in &steps {
            sched.push(*s, FaultEvent::TimingNoise { sigma: 0.1 });
        }
        for probe in 0..256usize {
            let expected = steps.iter().filter(|s| **s == probe).count();
            prop_assert!(sched.events_at(probe).count() == expected);
        }
    }
}

/// Back-to-back dropouts on a 4-GPU node: the second device dies in the
/// step after the first, while the balancer walks from its warm search.
/// The run must absorb both, finish with exactly two devices online, and
/// re-settle.
#[test]
fn double_dropout_during_recovery_reconverges() {
    let b = nbody::plummer(6000, 1.0, 1.0, 7010);
    let mut t = tracker(HeteroNode::system_a(10, 4), afmm::Strategy::Full, &b.pos);
    t.set_recorder(Recorder::enabled());
    let mut sched = FaultSchedule::new();
    sched.push(40, FaultEvent::GpuDropout { device: 1 });
    sched.push(41, FaultEvent::GpuDropout { device: 3 });
    t.set_fault_schedule(sched);

    let mut state_at = Vec::new();
    let mut computes = Vec::new();
    for _ in 0..120 {
        let rec = t.step(&b.pos).unwrap();
        state_at.push(rec.state);
        computes.push(rec.compute());
        assert!(rec.compute().is_finite() && rec.compute() > 0.0);
    }
    assert_eq!(
        t.node().num_online_gpus(),
        2,
        "both dropped devices stay offline"
    );
    assert_eq!(
        recovery_steps(&t),
        [40, 41],
        "each dropout is answered by lb.recovery in the step that sees it"
    );
    assert_eq!(
        state_at[41],
        LbState::Incremental,
        "test premise: the second dropout lands in the walk the first started"
    );
    assert!(
        state_at[60..].contains(&LbState::Observation),
        "balancer must re-settle after the double fault"
    );
    let steady_before: f64 = computes[30..40].iter().sum::<f64>() / 10.0;
    let steady_after: f64 = computes[110..].iter().sum::<f64>() / 10.0;
    assert!(
        steady_after <= 3.0 * steady_before,
        "post-double-fault steady state {steady_after} vs pre-fault {steady_before}"
    );
}

/// Corruption injected while incremental plan patches are in flight (the
/// positions drift every step, so stamps are live): the supervisor's
/// pre-step audit must catch it and the rebuild rung must heal it without
/// aborting the run.
#[test]
fn corruption_mid_patch_is_audited_and_healed() {
    let b = nbody::plummer(2500, 1.0, 1.0, 7011);
    let traj = |step: usize| -> Vec<Vec3> {
        let f = 0.996_f64.powi(step as i32);
        b.pos.iter().map(|p| *p * f).collect()
    };
    let mut sup = Supervisor::new(
        tracker(HeteroNode::system_a(10, 2), afmm::Strategy::Full, &b.pos),
        SupervisorConfig::default(),
    );
    // Drift long enough that the balancer settles and every step runs
    // incremental patches against the cached plan.
    for step in 0..45 {
        sup.step(&traj(step)).unwrap();
    }
    let corrupted = sup
        .tracker_mut()
        .engine_mut()
        .plan_mut_for_chaos()
        .map(|p| p.corrupt_truncate_list())
        .unwrap_or(false);
    assert!(corrupted, "live patched plan must be available to corrupt");

    let (_, action) = sup.step(&traj(45)).unwrap();
    assert_eq!(
        action,
        RecoveryAction::Rebuild,
        "audit must catch the truncation and the rebuild rung must heal it"
    );
    assert!(sup.report().audit_failures >= 1);
    // Healed: the run continues clean.
    for step in 46..55 {
        let (_, action) = sup.step(&traj(step)).unwrap();
        assert_eq!(action, RecoveryAction::None, "step {step} not clean");
    }
}
