//! Micro-benchmarks of the six FMM operations — the real-machine analogue
//! of the per-operation cost coefficients the paper's load balancer
//! observes. One Criterion group per operation, parameterized by expansion
//! order (gravity) plus the 7-channel Stokeslet variants whose M2L the
//! paper's Fig 10 leans on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fmm_math::{DerivScratch, ExpansionOps, GravityKernel, Kernel, StokesletKernel, M2L_LANES};
use geom::Vec3;
use std::hint::black_box;

fn cluster(n: usize) -> (Vec<Vec3>, Vec<f64>) {
    let b = nbody::uniform_cube(n, 0.5, 7);
    (b.pos, b.mass)
}

fn bench_p2m(c: &mut Criterion) {
    let mut g = c.benchmark_group("p2m");
    let (pos, mass) = cluster(64);
    for order in [4usize, 6, 8] {
        let ops = ExpansionOps::new(order);
        let kernel = GravityKernel::default();
        let mut m = vec![0.0; ops.nterms()];
        let mut pow = Vec::new();
        g.bench_with_input(BenchmarkId::new("gravity", order), &order, |b, _| {
            b.iter(|| {
                m.iter_mut().for_each(|v| *v = 0.0);
                kernel.p2m(&ops, Vec3::ZERO, &pos, &mass, &mut m, &mut pow);
                black_box(&m);
            })
        });
    }
    g.finish();
}

fn bench_translations(c: &mut Criterion) {
    let mut g = c.benchmark_group("translations");
    for order in [4usize, 6, 8] {
        let ops = ExpansionOps::new(order);
        let nt = ops.nterms();
        let src = vec![0.5; nt];
        let t = Vec3::new(0.25, -0.25, 0.25);
        let mut dst = vec![0.0; nt];
        let mut pow = Vec::new();
        g.bench_with_input(BenchmarkId::new("m2m", order), &order, |b, _| {
            b.iter(|| {
                ops.m2m(&src, t, &mut dst, 1, &mut pow);
                black_box(&dst);
            })
        });
        let mut ds = DerivScratch::default();
        let mut tens = Vec::new();
        let r = Vec3::new(3.0, 1.0, 0.5);
        g.bench_with_input(BenchmarkId::new("m2l", order), &order, |b, _| {
            b.iter(|| {
                ops.m2l(&src, r, &mut dst, 1, &mut ds, &mut tens);
                black_box(&dst);
            })
        });
        // One full batch: the per-M2L cost is this over M2L_LANES.
        let batch_src = [src.as_slice(); M2L_LANES];
        let batch_r: [Vec3; M2L_LANES] =
            std::array::from_fn(|lane| r + Vec3::new(0.0, 0.25 * lane as f64, 0.0));
        g.bench_with_input(BenchmarkId::new("m2l_batch", order), &order, |b, _| {
            b.iter(|| {
                ops.m2l_batch(&batch_src, &batch_r, &mut dst, 1, &mut ds);
                black_box(&dst);
            })
        });
        g.bench_with_input(BenchmarkId::new("l2l", order), &order, |b, _| {
            b.iter(|| {
                ops.l2l(&src, t, &mut dst, 1, &mut pow);
                black_box(&dst);
            })
        });
    }
    // The 7-channel Stokeslet M2L shares one derivative tensor, so it costs
    // less than 7x the single-channel gravity M2L: ~5.3x measured, 4.2x in
    // the flop model the paper's Fig 10 runs on.
    let ops = ExpansionOps::new(6);
    let nt = ops.nterms();
    let src = vec![0.5; 7 * nt];
    let mut dst = vec![0.0; 7 * nt];
    let mut ds = DerivScratch::default();
    let mut tens = Vec::new();
    g.bench_function("m2l/stokeslet_7ch_p6", |b| {
        b.iter(|| {
            ops.m2l(
                &src,
                Vec3::new(3.0, 1.0, 0.5),
                &mut dst,
                7,
                &mut ds,
                &mut tens,
            );
            black_box(&dst);
        })
    });
    let batch_src = [src.as_slice(); M2L_LANES];
    let batch_r: [Vec3; M2L_LANES] =
        std::array::from_fn(|lane| Vec3::new(3.0, 1.0 + 0.25 * lane as f64, 0.5));
    g.bench_function("m2l_batch/stokeslet_7ch_p6", |b| {
        b.iter(|| {
            ops.m2l_batch(&batch_src, &batch_r, &mut dst, 7, &mut ds);
            black_box(&dst);
        })
    });
    g.finish();
}

fn bench_l2p(c: &mut Criterion) {
    let mut g = c.benchmark_group("l2p");
    let (pos, _) = cluster(64);
    for order in [4usize, 6] {
        let ops = ExpansionOps::new(order);
        let kernel = GravityKernel::default();
        let l = vec![0.1; ops.nterms()];
        let mut pot = vec![0.0; pos.len()];
        let mut out = vec![Vec3::ZERO; pos.len()];
        let mut pow = Vec::new();
        g.bench_with_input(BenchmarkId::new("gravity", order), &order, |b, _| {
            b.iter(|| {
                kernel.l2p(&ops, Vec3::ZERO, &l, &pos, &mut pot, &mut out, &mut pow);
                black_box(&out);
            })
        });
    }
    g.finish();
}

fn bench_p2p(c: &mut Criterion) {
    let mut g = c.benchmark_group("p2p");
    for n in [32usize, 128, 512] {
        let (pos, mass) = cluster(n);
        let gravity = GravityKernel::new(1e-3);
        let mut pot = vec![0.0; n];
        let mut out = vec![Vec3::ZERO; n];
        g.bench_with_input(BenchmarkId::new("gravity_self", n), &n, |b, _| {
            b.iter(|| {
                gravity.p2p(&pos, &mut pot, &mut out, &pos, &mass, true);
                black_box(&out);
            })
        });
        let stokes = StokesletKernel::new(1e-3, 1.0);
        let f = nbody::random_unit_forces(n, 9);
        g.bench_with_input(BenchmarkId::new("stokeslet_self", n), &n, |b, _| {
            b.iter(|| {
                stokes.p2p(&pos, &mut pot, &mut out, &pos, &f, true);
                black_box(&out);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_p2m, bench_translations, bench_l2p, bench_p2p);
criterion_main!(benches);
