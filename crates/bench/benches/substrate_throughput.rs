//! Criterion benchmarks: throughput of the individual substrates (trace
//! generation, functional cache, bit-level SRAM array, timing model).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use cache8t_core::RmwController;
use cache8t_cpu::{PortTimingModel, TimingConfig};
use cache8t_sim::{Address, CacheGeometry, DataCache, MainMemory, ReplacementKind};
use cache8t_sram::{ArrayConfig, SramArray};
use cache8t_trace::{profiles, ProfiledGenerator, TraceGenerator};

const OPS: usize = 50_000;

fn bench_trace_generation(c: &mut Criterion) {
    let profile = profiles::by_name("bwaves").expect("bwaves is in the suite");
    let geometry = CacheGeometry::paper_baseline();
    let mut group = c.benchmark_group("trace_generation");
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("profiled_generator", |b| {
        b.iter(|| {
            let mut generator = ProfiledGenerator::new(profile.clone(), geometry, 42);
            generator.collect(OPS).len()
        });
    });
    group.finish();
}

fn bench_functional_cache(c: &mut Criterion) {
    let geometry = CacheGeometry::paper_baseline();
    let mut group = c.benchmark_group("functional_cache");
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("fill_and_read", |b| {
        b.iter(|| {
            let mut cache = DataCache::new(geometry, ReplacementKind::Lru);
            let memory = MainMemory::new(geometry.block_bytes());
            let mut victim = Vec::new();
            let mut hits = 0u64;
            for i in 0..OPS as u64 {
                let addr = Address::new((i % 4096) * 8);
                let set = geometry.set_index_of(addr);
                match cache.find_in_set(set, geometry.tag_of(addr)) {
                    Some(way) => {
                        cache.read_word_at(set, way, geometry.word_offset_of(addr));
                        hits += 1;
                    }
                    None => {
                        let base = geometry.block_base(addr);
                        cache.fill_into(base, memory.read_block_ref(base), &mut victim);
                    }
                }
            }
            hits
        });
    });
    group.finish();
}

fn bench_sram_array(c: &mut Criterion) {
    // One row of the baseline cache: 16 words of 64 bits.
    let config = ArrayConfig::for_cache_sets(512, 128).expect("baseline array");
    let mut group = c.benchmark_group("sram_array");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("rmw_write_word", |b| {
        b.iter(|| {
            let mut array = SramArray::new(config);
            for i in 0..10_000u64 {
                array
                    .rmw_write_word((i % 512) as usize, (i % 16) as usize, i)
                    .expect("in range");
            }
            array.counters().rmw_ops
        });
    });
    group.finish();
}

fn bench_timing_model(c: &mut Criterion) {
    let profile = profiles::by_name("gcc").expect("gcc is in the suite");
    let geometry = CacheGeometry::paper_baseline();
    let trace = ProfiledGenerator::new(profile, geometry, 42).collect(OPS);
    let model = PortTimingModel::new(TimingConfig::default());
    let mut group = c.benchmark_group("timing_model");
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("port_timing_rmw", |b| {
        b.iter(|| {
            let mut controller = RmwController::new(geometry, ReplacementKind::Lru);
            model.run(&mut controller, &trace).cycles
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_trace_generation, bench_functional_cache, bench_sram_array, bench_timing_model
}
criterion_main!(benches);
