//! Parallel-infrastructure benchmarks: gang scaling of the host execution
//! engine, halo-exchange throughput of the message-passing substrate, and
//! serialization of shot records.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mpi_sim::comm::Communicator;
use mpi_sim::decomp::SlabDecomp;
use mpi_sim::halo::exchange_halo2;
use seismic_grid::cfl::stable_dt;
use seismic_grid::{Extent2, Field2};
use seismic_model::builder::{acoustic2_layered, standard_layers};
use seismic_model::{extent2, Geometry};
use seismic_pml::CpmlAxis;
use seismic_prop::acoustic2d;
use seismic_source::Seismogram;

/// Gang scaling: the acoustic 2-D velocity phase over 1..8 gangs.
fn gang_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("gang_scaling");
    let n = 480;
    let e = extent2(n, n);
    let dt = stable_dt(8, 2, 3200.0, 10.0, 0.55);
    let m = acoustic2_layered(e, &standard_layers(n), Geometry::uniform(10.0, dt));
    let cp = CpmlAxis::new(n, e.halo, 16, dt, 3200.0, 10.0, 1e-4);
    let cpml = [cp.clone(), cp];
    let mut s = acoustic2d::Ac2State::new(e);
    for gangs in [1usize, 2, 4, 8] {
        g.throughput(Throughput::Elements(e.interior_len() as u64));
        g.bench_function(format!("gangs_{gangs}"), |b| {
            b.iter(|| s.velocity_phase(&m, &cpml, dt, gangs))
        });
    }
    g.finish();
}

/// Real ghost-row exchange between two ranks over the channel fabric.
fn halo_exchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("halo_exchange");
    for nx in [256usize, 1024] {
        let decomp = SlabDecomp::new(64, 2, 4);
        g.throughput(Throughput::Bytes((4 * nx * 4 * 2) as u64));
        g.bench_function(format!("two_ranks_nx{nx}"), |b| {
            b.iter(|| {
                Communicator::run(2, |ctx| {
                    let slab = decomp.slab(ctx.rank());
                    let e = Extent2::new(nx, slab.nz(), 4);
                    let mut f = Field2::filled(e, ctx.rank() as f32 + 1.0);
                    exchange_halo2(ctx, &mut f, &slab, 7);
                    f.as_slice()[0]
                })
            })
        });
    }
    g.finish();
}

/// Shot-record wire serialization round-trip.
fn seismogram_bytes(c: &mut Criterion) {
    let mut g = c.benchmark_group("seismogram_bytes");
    let mut s = Seismogram::zeros(256, 2000);
    for r in 0..256 {
        for t in 0..2000 {
            s.record(r, t, (r * t) as f32);
        }
    }
    g.throughput(Throughput::Bytes((256 * 2000 * 4) as u64));
    g.bench_function("roundtrip_256x2000", |b| {
        b.iter(|| {
            let bytes: Bytes = s.to_bytes();
            Seismogram::from_bytes(bytes).unwrap()
        })
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = gang_scaling, halo_exchange, seismogram_bytes
}
criterion_main!(benches);
