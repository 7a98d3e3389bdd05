//! Shot-loop reuse benchmarks: the cost of the old per-shot pattern
//! (construct a decoder, allocate scratch, decode) against the cached
//! pattern the evaluate loop now uses (long-lived decoder + reusable
//! [`DecodeWorkspace`]).
//!
//! Three variants per decoder kind and distance:
//! - `fresh_decoder`: rebuild the decoder every shot (old cache-less
//!   evaluate loop).
//! - `fresh_scratch`: long-lived decoder, allocating `decode_sample`.
//! - `reused`: long-lived decoder + one workspace across all shots.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use surfnet_decoder::{DecodeWorkspace, Decoder, SurfNetDecoder, UnionFindDecoder};
use surfnet_lattice::{CoreTopology, ErrorModel, ErrorSample, SurfaceCode};

fn samples(model: &ErrorModel, count: usize, seed: u64) -> Vec<ErrorSample> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count).map(|_| model.sample(&mut rng)).collect()
}

fn bench_decode_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_reuse");
    for &distance in &[5usize, 9] {
        let code = SurfaceCode::new(distance).unwrap();
        let partition = code.core_partition(CoreTopology::Cross);
        let model = ErrorModel::dual_channel(&code, &partition, 0.06, 0.15);
        let batch = samples(&model, 32, 42);

        group.bench_with_input(
            BenchmarkId::new("surfnet/fresh_decoder", distance),
            &batch,
            |b, batch| {
                let mut i = 0;
                b.iter(|| {
                    let s = &batch[i % batch.len()];
                    i += 1;
                    SurfNetDecoder::from_model(&code, &model).decode_sample(&code, s)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("surfnet/fresh_scratch", distance),
            &batch,
            |b, batch| {
                let sn = SurfNetDecoder::from_model(&code, &model);
                let mut i = 0;
                b.iter(|| {
                    let s = &batch[i % batch.len()];
                    i += 1;
                    Decoder::decode_sample(&sn, &code, s)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("surfnet/reused", distance),
            &batch,
            |b, batch| {
                let sn = SurfNetDecoder::from_model(&code, &model);
                let mut ws = DecodeWorkspace::new();
                let mut i = 0;
                b.iter(|| {
                    let s = &batch[i % batch.len()];
                    i += 1;
                    sn.decode_sample_with(&code, s, &mut ws)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("union-find/fresh_scratch", distance),
            &batch,
            |b, batch| {
                let uf = UnionFindDecoder::from_model(&code, &model);
                let mut i = 0;
                b.iter(|| {
                    let s = &batch[i % batch.len()];
                    i += 1;
                    Decoder::decode_sample(&uf, &code, s)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("union-find/reused", distance),
            &batch,
            |b, batch| {
                let uf = UnionFindDecoder::from_model(&code, &model);
                let mut ws = DecodeWorkspace::new();
                let mut i = 0;
                b.iter(|| {
                    let s = &batch[i % batch.len()];
                    i += 1;
                    uf.decode_sample_with(&code, s, &mut ws)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_decode_reuse
}
criterion_main!(benches);
