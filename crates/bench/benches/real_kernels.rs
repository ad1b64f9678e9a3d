//! Real measured kernel performance (host execution) — the executable
//! counterparts of Table 3 and Figures 12, 13.
//!
//! Groups:
//! * `modeling_cases` — one step of each propagator (Table 3 rows),
//! * `loop_fission` — fused vs fissioned acoustic 3D pressure update
//!   (Figure 12),
//! * `transpose_coalescing` — the transposition the Figure 13 optimization
//!   pays for, on real memory.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use seismic_grid::cfl::stable_dt;
use seismic_grid::SyncSlice;
use seismic_model::builder::{
    acoustic2_layered, acoustic3_layered, elastic2_layered, elastic3_layered, iso2_layered,
    iso3_layered, standard_layers,
};
use seismic_model::{extent2, extent3, Geometry};
use seismic_pml::{CpmlAxis, DampProfile};
use seismic_prop::{acoustic2d, acoustic3d, elastic2d, elastic3d, iso2d, iso3d, FissionVariant};

const N2: usize = 240;
const N3: usize = 48;

fn geom(safety: f32, dims: usize) -> Geometry {
    Geometry::uniform(10.0, stable_dt(8, dims, 3200.0, 10.0, safety))
}

fn modeling_cases(c: &mut Criterion) {
    let mut g = c.benchmark_group("modeling_cases");
    let layers = standard_layers(N2);

    // Isotropic 2D.
    {
        let e = extent2(N2, N2);
        let m = iso2_layered(e, &layers, geom(0.7, 2));
        let d = DampProfile::new(N2, e.halo, 16, 3200.0, 10.0, 1e-4);
        let mut s = iso2d::Iso2State::new(e);
        g.throughput(Throughput::Elements(e.interior_len() as u64));
        g.bench_function("iso_2d_step", |b| b.iter(|| s.step(&m, &d, &d, 1)));
    }
    // Acoustic 2D.
    {
        let e = extent2(N2, N2);
        let m = acoustic2_layered(e, &layers, geom(0.55, 2));
        let cp = CpmlAxis::new(N2, e.halo, 16, m.geom.dt, 3200.0, 10.0, 1e-4);
        let cpml = [cp.clone(), cp];
        let mut s = acoustic2d::Ac2State::new(e);
        g.throughput(Throughput::Elements(e.interior_len() as u64));
        g.bench_function("acoustic_2d_step", |b| b.iter(|| s.step(&m, &cpml, 1)));
    }
    // Elastic 2D.
    {
        let e = extent2(N2, N2);
        let m = elastic2_layered(e, &layers, geom(0.5, 2));
        let cp = CpmlAxis::new(N2, e.halo, 16, m.geom.dt, 3200.0, 10.0, 1e-4);
        let cpml = [cp.clone(), cp];
        let mut s = elastic2d::El2State::new(e);
        g.throughput(Throughput::Elements(e.interior_len() as u64));
        g.bench_function("elastic_2d_step", |b| b.iter(|| s.step(&m, &cpml, 1)));
    }
    let layers3 = standard_layers(N3);
    // Isotropic 3D.
    {
        let e = extent3(N3, N3, N3);
        let m = iso3_layered(e, &layers3, geom(0.7, 3));
        let d = DampProfile::new(N3, e.halo, 8, 3200.0, 10.0, 1e-4);
        let damp = [d.clone(), d.clone(), d];
        let mut s = iso3d::Iso3State::new(e);
        g.throughput(Throughput::Elements(e.interior_len() as u64));
        g.bench_function("iso_3d_step", |b| b.iter(|| s.step(&m, &damp, 1)));
    }
    // Acoustic 3D.
    {
        let e = extent3(N3, N3, N3);
        let m = acoustic3_layered(e, &layers3, geom(0.55, 3));
        let cp = CpmlAxis::new(N3, e.halo, 8, m.geom.dt, 3200.0, 10.0, 1e-4);
        let cpml = [cp.clone(), cp.clone(), cp];
        let mut s = acoustic3d::Ac3State::new(e);
        g.throughput(Throughput::Elements(e.interior_len() as u64));
        g.bench_function("acoustic_3d_step", |b| {
            b.iter(|| s.step(&m, &cpml, FissionVariant::Fissioned, 1))
        });
    }
    // Elastic 3D.
    {
        let e = extent3(N3, N3, N3);
        let m = elastic3_layered(e, &layers3, geom(0.5, 3));
        let cp = CpmlAxis::new(N3, e.halo, 8, m.geom.dt, 3200.0, 10.0, 1e-4);
        let cpml = [cp.clone(), cp.clone(), cp];
        let mut s = elastic3d::El3State::new(e);
        g.throughput(Throughput::Elements(e.interior_len() as u64));
        g.bench_function("elastic_3d_step", |b| b.iter(|| s.step(&m, &cpml, 1)));
    }
    g.finish();
}

fn loop_fission(c: &mut Criterion) {
    let mut g = c.benchmark_group("loop_fission");
    let e = extent3(N3, N3, N3);
    let m = acoustic3_layered(e, &standard_layers(N3), geom(0.55, 3));
    let cp = CpmlAxis::new(N3, e.halo, 8, m.geom.dt, 3200.0, 10.0, 1e-4);
    let cpml = [cp.clone(), cp.clone(), cp];
    for v in [FissionVariant::Fused, FissionVariant::Fissioned] {
        let mut s = acoustic3d::Ac3State::new(e);
        g.bench_function(format!("{v:?}"), |b| b.iter(|| s.step(&m, &cpml, v, 1)));
    }
    g.finish();
}

fn transpose_coalescing(c: &mut Criterion) {
    let mut g = c.benchmark_group("transpose_coalescing");
    let e = extent2(1024, 1024);
    let f = seismic_grid::Field2::from_fn(e, |ix, iz| (ix * 31 + iz) as f32);
    g.throughput(Throughput::Bytes((e.len() * 4) as u64));
    g.bench_function("field_transpose_1024", |b| b.iter(|| f.transposed()));

    // The strided vs contiguous sweep the transposition trades between.
    let mut out = seismic_grid::Field2::zeros(e);
    g.bench_function("sweep_x_inner(contiguous)", |b| {
        b.iter(|| {
            let o = SyncSlice::new(out.as_mut_slice());
            for iz in 0..e.nz {
                for ix in 0..e.nx {
                    let i = e.idx(ix, iz);
                    unsafe { o.set(i, f.as_slice()[i] * 2.0) };
                }
            }
        })
    });
    g.bench_function("sweep_z_inner(strided)", |b| {
        b.iter(|| {
            let o = SyncSlice::new(out.as_mut_slice());
            for ix in 0..e.nx {
                for iz in 0..e.nz {
                    let i = e.idx(ix, iz);
                    unsafe { o.set(i, f.as_slice()[i] * 2.0) };
                }
            }
        })
    });
    g.finish();
}

/// The VTI extension kernel measured alongside the paper's six.
fn vti_kernel(c: &mut Criterion) {
    use seismic_model::VtiModel2;
    use seismic_prop::vti2d;
    let mut g = c.benchmark_group("vti_kernel");
    let e = extent2(N2, N2);
    let vmax = 2000.0 * (1.0f32 + 0.4).sqrt();
    let m = VtiModel2::constant(
        e,
        2000.0,
        0.2,
        0.08,
        Geometry::uniform(10.0, stable_dt(8, 2, vmax, 10.0, 0.6)),
    );
    let d = DampProfile::new(N2, e.halo, 16, vmax, 10.0, 1e-4);
    let mut s = vti2d::Vti2State::new(e);
    g.throughput(Throughput::Elements(e.interior_len() as u64));
    g.bench_function("vti_2d_step", |b| b.iter(|| s.step(&m, &d, &d, 1)));
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = modeling_cases, loop_fission, transpose_coalescing, vti_kernel
}
criterion_main!(benches);
