//! Seeded inputs. The program only ever receives what is generated here:
//! bodies, forces, step sizes and (for `track_1m`) a trajectory.

use crate::spec::{Kind, Workload};
use geom::Vec3;
use nbody::Bodies;

/// Gravitational constant of every gravity workload.
pub const G: f64 = 1.0;
/// Plummer softening of `collapse_balanced`, which integrates through the
/// dense collapse; the pinned gravity workloads run unsoftened.
pub const COLLAPSE_SOFTENING: f64 = 0.01;
/// Stokeslet blob parameter and viscosity.
pub const STOKES_EPSILON: f64 = 1e-3;
pub const STOKES_MU: f64 = 1.0;

pub struct Inputs {
    pub bodies: Bodies,
    /// Stokeslet point forces, flat xyz (empty for gravity).
    pub forces: Vec<f64>,
    /// Time step; for `track_1m`, the ballistic drift time per step.
    pub dt: f64,
    /// Fixed simulation cube (center, half-width).
    pub domain: (Vec3, f64),
}

/// Steps over which the `track_1m` trajectory completes one breath. Fixed,
/// so a shorter run walks a prefix of a longer one, and slow enough that
/// most steps are quiet: the typical step is then a steady-state step and the
/// balancer's actions sit in the tail.
pub const TRACK_PERIOD: usize = 480;

/// Free-fall time of the unit-mass, unit-radius Plummer cloud of `n` bodies.
fn free_fall_time(n: usize) -> f64 {
    std::f64::consts::FRAC_PI_2 * (1.0 / (2.0 * G * n as f64)).sqrt()
}

pub fn generate(w: &Workload, n: usize, seed: u64) -> Inputs {
    // The capped Plummer cloud spans |x| <= 10; every pinned workload moves
    // its bodies by far less than the margin left here.
    let pinned_domain = (Vec3::ZERO, 12.0);
    match w.kind {
        Kind::PinnedGravity => Inputs {
            bodies: nbody::plummer(n, 1.0, G, seed),
            forces: Vec::new(),
            dt: free_fall_time(n) / 100.0,
            domain: pinned_domain,
        },
        Kind::PinnedStokes => Inputs {
            bodies: nbody::plummer(n, 1.0, G, seed),
            forces: nbody::random_unit_forces(n, seed.wrapping_add(1)),
            dt: 2e-3,
            domain: pinned_domain,
        },
        Kind::Collapse => {
            let setup = nbody::collapsing_plummer(n, G, seed);
            Inputs {
                bodies: setup.bodies,
                forces: Vec::new(),
                dt: free_fall_time(n) / 64.0,
                domain: (setup.domain_center, setup.domain_half_width),
            }
        }
        Kind::Track => {
            let setup = nbody::expanding_plummer(n, G, seed);
            // Ballistic drift carries the fastest body two length units per
            // breath; with the 2.5x breath the cloud stays inside the cube.
            let v_max = setup
                .bodies
                .vel
                .iter()
                .map(|v| v.norm())
                .fold(0.0, f64::max);
            Inputs {
                dt: 2.0 / (v_max * TRACK_PERIOD as f64),
                bodies: setup.bodies,
                forces: Vec::new(),
                domain: (setup.domain_center, setup.domain_half_width),
            }
        }
    }
}

impl Inputs {
    /// `track_1m` positions at step `k`: homologous breathing
    /// `a(k) = 1 + 1.5 sin^2(pi k / K)` about the domain centre plus
    /// ballistic drift, so density changes without any numeric solve.
    pub fn trajectory(&self, k: usize, out: &mut Vec<Vec3>) {
        let phase = std::f64::consts::PI * k as f64 / TRACK_PERIOD as f64;
        let a = 1.0 + 1.5 * phase.sin().powi(2);
        let drift = self.dt * k as f64;
        let c = self.domain.0;
        out.clear();
        out.extend(
            self.bodies
                .pos
                .iter()
                .zip(&self.bodies.vel)
                .map(|(&p, &v)| c + (p - c) * a + v * drift),
        );
    }
}
