//! Golden bits of the two drivers of the paper's loop: every field of every
//! `StepRecord` a `GravitySim` and a faulted `StrategyTracker` produce is
//! hashed by bit pattern and pinned, so a refactor of either driver must
//! leave the virtual clock, the balancer's path and the physics exactly as
//! they were. Two hashes cover the records: the path (every field but
//! `t_lb`: S, state, compute, counts) and the balancer's modeled time
//! (`t_lb` alone), so a change that only re-prices load-balancing work
//! shows as that, and the path stays pinned through it.

use afmm_repro::afmm::StepRecord;
use afmm_repro::prelude::*;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn path(&mut self, r: &StepRecord) {
        self.word(r.step as u64);
        self.word(r.s as u64);
        self.word(r.state as u64);
        self.word(r.t_cpu.to_bits());
        self.word(r.t_gpu.to_bits());
        self.word(r.gpu_efficiency.to_bits());
        self.word(r.p2p_interactions);
        self.word(r.m2l_ops);
    }

    fn positions(&mut self, pos: &[Vec3]) {
        for p in pos {
            self.word(p.x.to_bits());
            self.word(p.y.to_bits());
            self.word(p.z.to_bits());
        }
    }
}

fn small_cfg() -> LbConfig {
    LbConfig {
        eps_switch_s: 2e-3,
        ..Default::default()
    }
}

/// The two hashes of a run's records: its path and its `t_lb` series.
struct Records {
    path: Fnv,
    t_lb: Fnv,
}

impl Records {
    fn new() -> Self {
        Records {
            path: Fnv::new(),
            t_lb: Fnv::new(),
        }
    }

    fn push(&mut self, r: &StepRecord) {
        self.path.path(r);
        self.t_lb.word(r.t_lb.to_bits());
    }

    /// `"<path> <t_lb>"` in hex.
    fn hex(&self) -> String {
        format!("{:016x} {:016x}", self.path.0, self.t_lb.0)
    }
}

/// A collapsing cloud stepped by `GravitySim` under one strategy: the
/// hashes of its records (path, then `t_lb`) and of its final positions.
fn gravity_sim_bits(strategy: Strategy) -> String {
    let setup = nbody::collapsing_plummer(1500, 1.0, 4301);
    let mut sim = GravitySim::new(
        setup.bodies,
        1.0,
        1e-3,
        0.05,
        FmmParams {
            order: 4,
            ..Default::default()
        },
        HeteroNode::system_a(10, 1),
        strategy,
        small_cfg(),
        Some((setup.domain_center, setup.domain_half_width)),
    );
    let mut records = Records::new();
    for i in 0..30 {
        let r = sim.step().unwrap();
        assert_eq!(r.step, i);
        records.push(&r);
    }
    let mut pos = Fnv::new();
    pos.positions(&sim.bodies.pos);
    format!("{} {:016x}", records.hex(), pos.0)
}

#[test]
fn gravity_sim_records_keep_their_golden_bits() {
    let got = [Strategy::StaticS, Strategy::EnforceOnly, Strategy::Full].map(gravity_sim_bits);
    // Each line: path, t_lb, final positions.
    let want = [
        "40b00cb57455eb32 64c41da293f71a25 677155eaabbcc298",
        "bc2362bbb2af1937 64c41da293f71a25 677155eaabbcc298",
        "79e6223b699ad936 1214d601e16daecd ca80d73dcad5b5ac",
    ];
    assert_eq!(got, want);
}

#[test]
fn faulted_tracker_records_keep_their_golden_bits() {
    let b = nbody::plummer(3000, 1.0, 1.0, 4302);
    let mut tracker = StrategyTracker::new(
        GravityKernel::default(),
        FmmParams::default(),
        HeteroNode::system_a(10, 4),
        Strategy::Full,
        small_cfg(),
        &b.pos,
        None,
    );
    tracker.set_fault_schedule(
        FaultSchedule::new()
            .with(8, FaultEvent::TimingNoise { sigma: 0.05 })
            .with(12, FaultEvent::GpuDropout { device: 2 })
            .with(20, FaultEvent::ExternalCpuLoad { factor: 1.5 }),
    );
    let clump = Vec3::new(2.0, -1.0, 0.5);
    let mut pos = b.pos.clone();
    let mut records = Records::new();
    for i in 0..35 {
        let r = tracker.step(&pos).unwrap();
        assert_eq!(r.step, i);
        records.push(&r);
        if i < 20 {
            for p in &mut pos {
                *p = *p + (clump - *p) * 0.03;
            }
        }
    }
    // Path, then t_lb.
    assert_eq!(records.hex(), "f952ebd3568a70c6 e6496c012c507eb0");
}
