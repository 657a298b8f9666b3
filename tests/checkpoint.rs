//! Checkpoint/restore end-to-end: a run that is killed and restored from a
//! snapshot must continue **bit-identically** to one that never stopped —
//! same S trajectory, same balancer states, same timing floats to the last
//! bit — through rebins, S changes and balancer phase transitions.

use afmm_repro::prelude::*;

const STEPS: usize = 80;
const KILL_AT: usize = 30;

fn tracker(pos: &[Vec3]) -> StrategyTracker<GravityKernel> {
    StrategyTracker::new(
        GravityKernel::default(),
        FmmParams::default(),
        HeteroNode::system_a(10, 2),
        Strategy::Full,
        LbConfig {
            eps_switch_s: 2e-3,
            ..Default::default()
        },
        pos,
        None,
    )
}

/// Deterministic drift: positions as a pure function of the step index.
/// The contraction forces rebins (bodies cross leaf boundaries) while the
/// searching balancer changes S — the two events the snapshot must survive.
fn trajectory(base: &[Vec3], step: usize) -> Vec<Vec3> {
    let f = 0.996_f64.powi(step as i32);
    base.iter().map(|p| *p * f).collect()
}

fn assert_records_bit_identical(a: &[afmm::StepRecord], b: &[afmm::StepRecord]) {
    assert_eq!(a.len(), b.len(), "record counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.step, y.step);
        assert_eq!(x.s, y.s, "step {}: S diverged", x.step);
        assert_eq!(x.state, y.state, "step {}: state diverged", x.step);
        for (name, u, v) in [
            ("t_cpu", x.t_cpu, y.t_cpu),
            ("t_gpu", x.t_gpu, y.t_gpu),
            ("t_lb", x.t_lb, y.t_lb),
            ("gpu_efficiency", x.gpu_efficiency, y.gpu_efficiency),
        ] {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "step {}: {name} diverged ({u:e} vs {v:e})",
                x.step
            );
        }
        assert_eq!(x.p2p_interactions, y.p2p_interactions, "step {}", x.step);
        assert_eq!(x.m2l_ops, y.m2l_ops, "step {}", x.step);
    }
}

/// The tentpole guarantee: checkpoint → kill → restore → continue equals an
/// uninterrupted run, bit for bit, over a trajectory with rebins and S
/// changes on both sides of the kill point.
#[test]
fn restored_run_is_bit_identical_to_uninterrupted() {
    let b = nbody::plummer(3000, 1.0, 1.0, 4242);
    // A dropout after the kill point forces the balancer back into
    // Search — an S change the *restored* run must reproduce, which also
    // proves the fault schedule travels with the snapshot.
    let schedule = || {
        let mut s = FaultSchedule::new();
        s.push(45, FaultEvent::GpuDropout { device: 1 });
        s
    };

    // Run A: uninterrupted.
    let mut a = tracker(&b.pos);
    a.set_fault_schedule(schedule());
    for step in 0..STEPS {
        a.step(&trajectory(&b.pos, step)).unwrap();
    }

    // Run B: same tracker config, killed at KILL_AT and restored.
    let mut b1 = tracker(&b.pos);
    b1.set_fault_schedule(schedule());
    for step in 0..KILL_AT {
        b1.step(&trajectory(&b.pos, step)).unwrap();
    }
    let snapshot = b1.checkpoint(&trajectory(&b.pos, KILL_AT - 1));
    drop(b1); // the "kill"

    let (mut b2, saved_pos) = StrategyTracker::restore(
        GravityKernel::default(),
        HeteroNode::system_a(10, 2),
        &snapshot,
    )
    .expect("restore must succeed");
    // The snapshot hands back the positions it was taken with.
    let expect = trajectory(&b.pos, KILL_AT - 1);
    assert_eq!(saved_pos.len(), expect.len());
    for (p, q) in saved_pos.iter().zip(&expect) {
        assert_eq!(p.x.to_bits(), q.x.to_bits());
        assert_eq!(p.y.to_bits(), q.y.to_bits());
        assert_eq!(p.z.to_bits(), q.z.to_bits());
    }
    assert_eq!(
        b2.records().len(),
        KILL_AT,
        "history travels with the snapshot"
    );
    for step in KILL_AT..STEPS {
        b2.step(&trajectory(&b.pos, step)).unwrap();
    }

    assert_records_bit_identical(a.records(), b2.records());

    // The trajectory actually exercised what it claims: S changed both
    // before and after the kill point.
    let distinct = |r: &[afmm::StepRecord]| {
        let mut s: Vec<usize> = r.iter().map(|x| x.s).collect();
        s.dedup();
        s.len()
    };
    assert!(
        distinct(&a.records()[..KILL_AT]) > 1,
        "no S change before the kill point — trajectory too tame"
    );
    assert!(
        distinct(&a.records()[KILL_AT..]) > 1,
        "no S change after the kill point — trajectory too tame"
    );
    // ... and the snapshot was taken of a balancer that had been through
    // Search, the Incremental walk and Observation.
    let before_kill: Vec<LbState> = (a.records()[..KILL_AT].iter().map(|r| r.state)).collect();
    for state in [LbState::Search, LbState::Incremental, LbState::Observation] {
        assert!(
            before_kill.contains(&state),
            "never in {state:?} before the kill"
        );
    }
}

/// Serialization is deterministic and the envelope self-verifies: same
/// state → same bytes; any payload tamper → checksum refusal.
#[test]
fn snapshot_is_deterministic_and_tamper_evident() {
    let b = nbody::plummer(1200, 1.0, 1.0, 777);
    let mut t = tracker(&b.pos);
    for step in 0..12 {
        t.step(&trajectory(&b.pos, step)).unwrap();
    }
    let s1 = t.checkpoint(&trajectory(&b.pos, 11));
    let s2 = t.checkpoint(&trajectory(&b.pos, 11));
    assert_eq!(s1, s2, "checkpointing is a pure read of tracker state");

    // Tamper with one digit inside the payload.
    let idx = s1.find("\"records\"").unwrap();
    let mut bytes = s1.clone().into_bytes();
    for c in &mut bytes[idx..] {
        if c.is_ascii_digit() {
            *c = if *c == b'7' { b'8' } else { b'7' };
            break;
        }
    }
    let tampered = String::from_utf8(bytes).unwrap();
    let err = match StrategyTracker::<GravityKernel>::restore(
        GravityKernel::default(),
        HeteroNode::system_a(10, 2),
        &tampered,
    ) {
        Err(e) => e,
        Ok(_) => panic!("tampered snapshot must be refused"),
    };
    let msg = err.to_string();
    assert!(
        msg.contains("checksum"),
        "tamper must be caught by the checksum, got: {msg}"
    );
}

/// `text` with its payload rewritten by `edit` and the envelope's checksum
/// (FNV-1a 64 over the payload bytes) recomputed, so the validation behind
/// the checksum is reached.
fn resealed(text: &str, edit: impl FnOnce(&str) -> String) -> String {
    let (head, payload) = text.split_once("\"payload\":").unwrap();
    let payload = edit(payload.strip_suffix('}').unwrap());
    let sum = payload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let (before, after) = head.split_once("\"checksum\":\"").unwrap();
    let (_, after) = after.split_once('"').unwrap();
    format!("{before}\"checksum\":\"{sum:016x}\"{after}\"payload\":{payload}}}")
}

/// Restore a tracker checkpoint onto the node `tracker` runs on.
fn restore(text: &str) -> Result<(), afmm::Error> {
    StrategyTracker::<GravityKernel>::restore(
        GravityKernel::default(),
        HeteroNode::system_a(10, 2),
        text,
    )
    .map(drop)
}

/// A well-formed snapshot whose Morton codes are out of order, under a valid
/// checksum: child ranges are binary-searched on `codes` before any rebin
/// rewrites them, so the tree must be refused, not restored.
#[test]
fn unsorted_codes_under_a_valid_checksum_are_refused() {
    let b = nbody::plummer(900, 1.0, 1.0, 313);
    let mut t = tracker(&b.pos);
    for step in 0..4 {
        t.step(&trajectory(&b.pos, step)).unwrap();
    }
    let snap = t.checkpoint(&trajectory(&b.pos, 3));
    assert!(restore(&resealed(&snap, str::to_string)).is_ok());

    let flipped = resealed(&snap, |payload| {
        let (head, codes) = payload.split_once("\"codes\":[").unwrap();
        let (codes, tail) = codes.split_once(']').unwrap();
        let mut codes: Vec<&str> = codes.split(',').collect();
        let i = (1..codes.len())
            .find(|&i| codes[i - 1] != codes[i])
            .unwrap();
        codes.swap(i - 1, i);
        format!("{head}\"codes\":[{}]{tail}", codes.join(","))
    });
    assert_ne!(flipped, snap);
    let err = match restore(&flipped) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("a tree with unsorted codes must be refused"),
    };
    assert!(err.contains("not ascending"), "unexpected error: {err}");
}

/// `text` with the value of the first `"key":` in its payload (a number or
/// a flat array) replaced by `value`, resealed.
fn with_field(text: &str, key: &str, value: &str) -> String {
    resealed(text, |payload| {
        let pat = format!("\"{key}\":");
        let (head, rest) = payload.split_once(&pat).unwrap();
        let end = match rest.strip_prefix('[') {
            Some(arr) => arr.find(']').unwrap() + 2,
            None => rest.find([',', '}']).unwrap(),
        };
        format!("{head}{pat}{value}{}", &rest[end..])
    })
}

/// A tracker checkpoint taken after a few steps.
fn tracker_checkpoint() -> String {
    let b = nbody::plummer(900, 1.0, 1.0, 717);
    let mut t = tracker(&b.pos);
    for step in 0..6 {
        t.step(&trajectory(&b.pos, step)).unwrap();
    }
    t.checkpoint(&trajectory(&b.pos, 5))
}

fn assert_refused(result: Result<(), afmm::Error>, what: &str, needle: &str) {
    match result {
        Err(afmm::Error::Checkpoint(msg)) => assert!(msg.contains(needle), "{what}: {msg}"),
        Err(e) => panic!("{what}: wrong error {e}"),
        Ok(()) => panic!("{what} must be refused"),
    }
}

/// A fault state `apply_faults` would refuse — a CPU load factor that is not
/// finite and positive, a noise σ that is not finite and non-negative — is
/// refused on restore too, under a valid checksum.
#[test]
fn fault_state_outside_the_live_bounds_is_refused() {
    let snap = tracker_checkpoint();
    let bits = |x: f64| x.to_bits().to_string();
    assert!(restore(&with_field(&snap, "cpu_load", &bits(2.0))).is_ok());
    assert!(restore(&with_field(&snap, "noise_sigma", &bits(0.1))).is_ok());
    for load in [-2.0, 0.0, f64::NAN, f64::INFINITY] {
        let text = with_field(&snap, "cpu_load", &bits(load));
        assert_refused(restore(&text), &format!("cpu_load {load}"), "CPU load");
    }
    for sigma in [-0.5, f64::NAN, f64::INFINITY] {
        let text = with_field(&snap, "noise_sigma", &bits(sigma));
        assert_refused(restore(&text), &format!("noise_sigma {sigma}"), "sigma");
    }
}

/// Filter state the live `TimingFilter` can never hold — a window longer
/// than its five samples, a window sample `push` would reject — is refused
/// on restore, under a valid checksum.
#[test]
fn filter_state_the_live_filter_cannot_hold_is_refused() {
    let snap = tracker_checkpoint();
    let bits = |x: f64| x.to_bits().to_string();
    let window = |xs: &[f64]| {
        let xs: Vec<String> = xs.iter().map(|&x| bits(x)).collect();
        format!("[{}]", xs.join(","))
    };
    assert!(restore(&with_field(&snap, "window", &window(&[1e-3; 5]))).is_ok());
    let text = with_field(&snap, "window", &window(&[1e-3; 6]));
    assert_refused(restore(&text), "six samples under k = 5", "window");
    for bad in [-1.0, f64::NAN, f64::INFINITY] {
        let text = with_field(&snap, "window", &window(&[1e-3, bad]));
        assert_refused(restore(&text), &format!("window sample {bad}"), "reject");
    }
}

/// An engine checkpoint whose MAC θ is rewritten under a valid checksum is
/// refused unless `Mac::new` takes it: every traversal the restored engine
/// runs — its first plan build included — uses that MAC.
#[test]
fn engine_theta_outside_the_macs_range_is_refused() {
    let b = nbody::plummer(900, 1.0, 1.0, 515);
    let engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 32);
    let text = afmm::checkpoint::engine_to_json(&engine.checkpoint_state());
    let with_theta = |theta: f64| {
        let edited = with_field(&text, "theta", &theta.to_bits().to_string());
        let snap = afmm::checkpoint::engine_from_json(&edited)?;
        FmmEngine::restore_state(GravityKernel::default(), snap)
    };
    assert_eq!(FmmParams::default().mac.theta, 0.6);
    let mut restored = with_theta(0.6).expect("the engine's own theta restores");
    assert_eq!(restored.params().mac.theta, 0.6);
    restored.refresh_plan();
    restored.audit_plan().unwrap();
    for theta in [0.0, 2.0, f64::NAN] {
        match with_theta(theta) {
            Err(afmm::Error::Checkpoint(msg)) => {
                assert!(msg.contains("theta"), "theta {theta}: {msg}")
            }
            Err(e) => panic!("theta {theta}: wrong error {e}"),
            Ok(_) => panic!("theta {theta} must be refused"),
        }
    }
}

/// An engine checkpoint whose expansion order is rewritten to `order` under
/// a valid checksum, restored: the engine builds its expansion tables from
/// that order, so one they cannot be built for must be refused, not panic.
#[test]
fn engine_order_beyond_the_expansion_tables_is_refused() {
    let b = nbody::plummer(900, 1.0, 1.0, 616);
    let engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 32);
    let text = afmm::checkpoint::engine_to_json(&engine.checkpoint_state());
    let with_order = |order: usize| {
        let edited = resealed(&text, |payload| {
            payload.replacen("{\"order\":6,", &format!("{{\"order\":{order},"), 1)
        });
        let snap = afmm::checkpoint::engine_from_json(&edited)?;
        FmmEngine::restore_state(GravityKernel::default(), snap)
    };
    assert_eq!(FmmParams::default().order, 6);
    assert!(with_order(6).is_ok());
    assert!(with_order(fmm_math::MAX_ORDER).is_ok());
    for order in [fmm_math::MAX_ORDER + 1, 31] {
        match with_order(order) {
            Err(afmm::Error::Checkpoint(msg)) => assert!(msg.contains("order"), "{msg}"),
            Err(e) => panic!("wrong error {e}"),
            Ok(_) => panic!("expansion order {order} must be refused"),
        }
    }
}

/// A snapshot from a different schema version is refused up front, and a
/// node that does not match the snapshot's device count is refused too.
#[test]
fn version_and_node_mismatches_are_refused() {
    let b = nbody::plummer(900, 1.0, 1.0, 881);
    let mut t = tracker(&b.pos);
    for step in 0..6 {
        t.step(&trajectory(&b.pos, step)).unwrap();
    }
    let snap = t.checkpoint(&trajectory(&b.pos, 5));

    // v1 (the balancer image still carried its six fixed knobs and the
    // hysteresis counter), v2 (the engine image still carried the plan) and
    // a future version alike.
    for version in [1, 2, afmm::SCHEMA_VERSION + 1] {
        let other = snap.replacen(
            &format!("\"schema_version\":{}", afmm::SCHEMA_VERSION),
            &format!("\"schema_version\":{version}"),
            1,
        );
        assert_ne!(snap, other, "version field must be present to rewrite");
        let err = match StrategyTracker::<GravityKernel>::restore(
            GravityKernel::default(),
            HeteroNode::system_a(10, 2),
            &other,
        ) {
            Err(e) => e,
            Ok(_) => panic!("version-{version} snapshot must be refused"),
        };
        assert!(
            matches!(err, afmm::Error::Checkpoint(ref m) if m.contains("schema")),
            "unexpected error: {err}"
        );
    }

    // 2-GPU snapshot into a CPU-only node: refused, not silently degraded.
    let err = match StrategyTracker::<GravityKernel>::restore(
        GravityKernel::default(),
        HeteroNode::system_b(16),
        &snap,
    ) {
        Err(e) => e,
        Ok(_) => panic!("node-shape mismatch must be refused"),
    };
    assert!(
        err.to_string().to_lowercase().contains("gpu"),
        "unexpected error: {err}"
    );
}

/// The supervisor's auto-checkpoint + restore rung rewinds a poisoned run
/// to its last good state and the run then matches the clean continuation.
#[test]
fn supervisor_restore_continues_bit_identically() {
    let b = nbody::plummer(1500, 1.0, 1.0, 992);

    // Reference: clean supervised run, no faults.
    let mut reference = Supervisor::new(
        tracker(&b.pos),
        SupervisorConfig {
            checkpoint_every: 10,
        },
    );
    while reference.step_index() < 40 {
        let pos = trajectory(&b.pos, reference.step_index());
        reference.step(&pos).unwrap();
    }

    // Victim: same run, but positions are poisoned at step 25. The
    // supervisor restores from the step-20 checkpoint and the driver
    // (keying the trajectory off `step_index`) replays forward.
    let mut victim = Supervisor::new(
        tracker(&b.pos),
        SupervisorConfig {
            checkpoint_every: 10,
        },
    );
    let mut poisoned = false;
    while victim.step_index() < 40 {
        let idx = victim.step_index();
        let mut pos = trajectory(&b.pos, idx);
        if idx == 25 && !poisoned {
            poisoned = true;
            pos[7].y = f64::NAN;
        }
        victim.step(&pos).unwrap();
    }
    assert_eq!(victim.report().restores, 1, "the poison forced one restore");
    assert_records_bit_identical(reference.tracker().records(), victim.tracker().records());
}

/// The execution policy is caller configuration the checkpoint does not
/// hold: a supervised run under `offload_pl` must come back from a restore
/// still timing P2M/L2P on the GPUs, so the replayed and following steps
/// match the run that was never interrupted.
#[test]
fn supervisor_restore_keeps_the_exec_policy() {
    let b = nbody::plummer(1500, 1.0, 1.0, 993);
    let run = |restore_at: Option<usize>| {
        let mut t = StrategyTracker::new(
            GravityKernel::default(),
            FmmParams::default(),
            HeteroNode::system_a(4, 4),
            Strategy::Full,
            LbConfig::default(),
            &b.pos,
            None,
        );
        t.set_exec_policy(afmm::ExecPolicy { offload_pl: true });
        let mut sup = Supervisor::new(
            t,
            SupervisorConfig {
                checkpoint_every: 10,
            },
        );
        let mut restored = false;
        while sup.step_index() < 30 {
            if Some(sup.step_index()) == restore_at && !restored {
                restored = true;
                sup.restore_from_checkpoint().unwrap();
            }
            let pos = trajectory(&b.pos, sup.step_index());
            sup.step(&pos).unwrap();
        }
        sup.tracker().records().to_vec()
    };
    assert_records_bit_identical(&run(None), &run(Some(15)));
}

/// An engine over a Plummer sphere (N = 3000, S = 32) with one twig
/// collapsed, so its snapshot carries a hidden subtree, checkpointed; the
/// snapshot's tree edited by `edit` and restored. The far field scales
/// every M2L by the half-widths of its cells, so a tree whose geometry does
/// not nest from its root cube must be refused, not solved.
fn restore_with_tree_edit(
    edit: impl FnOnce(&mut octree::TreeSnapshot),
) -> Result<FmmEngine<GravityKernel>, afmm::Error> {
    let b = nbody::plummer(3000, 1.0, 1.0, 717);
    let mut engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 32);
    let tree = engine.tree();
    let twig = (tree.visible_nodes().into_iter())
        .find(|&id| {
            let n = tree.node(id);
            !n.is_leaf() && tree.visible_children(id).all(|c| tree.node(c).is_leaf())
        })
        .expect("a twig");
    assert!(engine.apply_collapse(twig));
    let mut snap = engine.checkpoint_state();
    edit(&mut snap.tree);
    FmmEngine::restore_state(GravityKernel::default(), snap)
}

fn assert_tree_refused(what: &str, needle: &str, edit: impl FnOnce(&mut octree::TreeSnapshot)) {
    match restore_with_tree_edit(edit) {
        Err(afmm::Error::Checkpoint(msg)) => assert!(msg.contains(needle), "{what}: {msg}"),
        Err(e) => panic!("{what}: wrong error {e}"),
        Ok(_) => panic!("{what} must be refused"),
    }
}

/// Leaf half-widths scaled by 1e-6, set to zero or to NaN: each leaf must
/// be exactly half its parent's width.
#[test]
fn leaf_widths_that_do_not_halve_their_parents_are_refused() {
    assert!(restore_with_tree_edit(|_| {}).is_ok());
    for (what, factor) in [("scaled by 1e-6", 1e-6), ("zero", 0.0), ("NaN", f64::NAN)] {
        assert_tree_refused(&format!("leaf half-widths {what}"), "half-width", |tree| {
            for n in tree.nodes.iter_mut().filter(|n| n.is_leaf()) {
                n.half_width *= factor;
            }
        });
    }
}

/// The first child of the snapshot's first collapsed node: a hidden node.
fn hidden(tree: &octree::TreeSnapshot) -> usize {
    (tree.nodes.iter())
        .position(|n| n.collapsed)
        .map(|id| tree.nodes[id].first_child as usize)
        .expect("a collapsed node")
}

/// A collapsed node's hidden children are not solved on, but a push-down
/// reclaims them as they are: their widths are checked too.
#[test]
fn hidden_child_widths_are_refused() {
    assert_tree_refused("a hidden child's half-width", "half-width", |tree| {
        let id = hidden(tree);
        tree.nodes[id].half_width *= 2.0;
    });
}

/// A hidden node's stale body range need not nest in its parent's, but it
/// must be a range within the bodies: populations are read off every node.
#[test]
fn hidden_child_ranges_that_are_not_ranges_are_refused() {
    assert_tree_refused("a hidden child's backwards range", "body range", |tree| {
        let id = hidden(tree);
        (tree.nodes[id].begin, tree.nodes[id].end) = (5, 2);
    });
    assert_tree_refused(
        "a hidden child's range past the bodies",
        "body range",
        |tree| {
            let id = hidden(tree);
            tree.nodes[id].end = tree.order.len() as u32 + 1;
        },
    );
}

/// The root node must be the recorded root cube, which must be finite with
/// a positive half-width.
#[test]
fn root_cube_that_is_not_the_recorded_one_is_refused() {
    assert_tree_refused("a moved root node", "root", |tree| {
        tree.nodes[0].center.x += 1e-3;
    });
    assert_tree_refused("a shrunk root node", "root", |tree| {
        tree.nodes[0].half_width *= 0.5;
    });
    assert_tree_refused("a NaN root center", "root", |tree| {
        tree.root_center.y = f64::NAN;
        tree.nodes[0].center.y = f64::NAN;
    });
    assert_tree_refused("an infinite root half-width", "root", |tree| {
        tree.root_half_width = f64::INFINITY;
        tree.nodes[0].half_width = f64::INFINITY;
    });
    assert_tree_refused("a negative root half-width", "root", |tree| {
        tree.root_half_width = -tree.root_half_width;
        tree.nodes[0].half_width = tree.root_half_width;
    });
}

/// `text` with the value of `"key":` inside its balancer object replaced by
/// `value`, resealed.
fn with_balancer_field(text: &str, key: &str, value: &str) -> String {
    resealed(text, |payload| {
        let (head, balancer) = payload.split_once("\"balancer\":").unwrap();
        let pat = format!("\"{key}\":");
        let (before, rest) = balancer.split_once(&pat).unwrap();
        let end = match rest.strip_prefix('[') {
            Some(arr) => arr.find(']').unwrap() + 2,
            None => rest.find([',', '}']).unwrap(),
        };
        format!("{head}\"balancer\":{before}{pat}{value}{}", &rest[end..])
    })
}

/// Restore `snap` with each `(key, value)` of `edits` written into its
/// balancer object.
fn restore_balancer(snap: &str, edits: &[(&str, String)]) -> Result<(), afmm::Error> {
    let text = edits
        .iter()
        .fold(snap.to_string(), |t, (k, v)| with_balancer_field(&t, k, v));
    restore(&text)
}

fn bits(x: f64) -> String {
    x.to_bits().to_string()
}

/// A walk tuple `[s, compute]` as the checkpoint writes it.
fn walk(s: usize, compute: f64) -> String {
    format!("[{s},{}]", bits(compute))
}

/// Bounds `LoadBalancer::new` asserts against — S ≥ 1 is what
/// `Octree::price` asserts — are refused on restore: a zero `s_min`.
#[test]
fn balancer_s_min_of_zero_is_refused() {
    let snap = tracker_checkpoint();
    assert!(restore_balancer(&snap, &[("s_min", "1".into())]).is_ok());
    let result = restore_balancer(&snap, &[("s_min", "0".into())]);
    assert_refused(result, "s_min 0", "bounds");
}

/// An empty S range (`s_min ≥ s_max`) is refused on restore.
#[test]
fn balancer_bounds_that_do_not_ascend_are_refused() {
    let snap = tracker_checkpoint();
    for (lo, hi) in [(8, 8), (4096, 8)] {
        let edits = [("s_min", lo.to_string()), ("s_max", hi.to_string())];
        let result = restore_balancer(&snap, &edits);
        assert_refused(result, &format!("bounds {lo}..{hi}"), "bounds");
    }
}

/// A balancer S outside `[s_min, s_max]` is refused on restore.
#[test]
fn balancer_s_outside_its_bounds_is_refused() {
    let snap = tracker_checkpoint();
    assert!(restore_balancer(&snap, &[("s", "4096".into())]).is_ok());
    for s in [0, 7, 4097] {
        let result = restore_balancer(&snap, &[("s", s.to_string())]);
        assert_refused(result, &format!("S {s}"), "outside");
    }
}

/// A walk whose S lies outside `[s_min, s_max]` is refused on restore.
#[test]
fn walk_s_outside_the_bounds_is_refused() {
    let snap = tracker_checkpoint();
    assert!(restore_balancer(&snap, &[("walk", walk(8, 1e-3))]).is_ok());
    for s in [0, 7, 5000] {
        let result = restore_balancer(&snap, &[("walk", walk(s, 1e-3))]);
        assert_refused(result, &format!("walk S {s}"), "outside");
    }
}

/// A switching threshold that is not finite is refused on restore.
#[test]
fn non_finite_switching_threshold_is_refused() {
    let snap = tracker_checkpoint();
    assert!(restore_balancer(&snap, &[("eps", bits(0.15))]).is_ok());
    for eps in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let result = restore_balancer(&snap, &[("eps", bits(eps))]);
        assert_refused(result, &format!("eps {eps}"), "threshold");
    }
}

/// A NaN best compute is refused on restore; +∞, the best before the first
/// observation, is not.
#[test]
fn nan_best_compute_is_refused() {
    let snap = tracker_checkpoint();
    assert!(restore_balancer(&snap, &[("best", bits(f64::INFINITY))]).is_ok());
    let result = restore_balancer(&snap, &[("best", bits(f64::NAN))]);
    assert_refused(result, "best NaN", "NaN");
}

/// A walk compute that is NaN or negative is refused on restore.
#[test]
fn walk_compute_that_is_not_a_time_is_refused() {
    let snap = tracker_checkpoint();
    assert!(restore_balancer(&snap, &[("walk", walk(64, 0.0))]).is_ok());
    for compute in [f64::NAN, -1e-3, f64::NEG_INFINITY] {
        let result = restore_balancer(&snap, &[("walk", walk(64, compute))]);
        assert_refused(result, &format!("walk compute {compute}"), "not a time");
    }
}
