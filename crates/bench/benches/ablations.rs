//! Ablation benches: each measurement regenerates one ablation row
//! (sub-stream ordering policies, modulo group sizes, k-sweep points).

use criterion::{criterion_group, criterion_main, Criterion};
use ooo_cluster::ablation::{k_sweep, modulo_group_sweep, straggler_network, sub_order_ablation};
use ooo_models::zoo::{bert, densenet121, resnet};
use ooo_models::GpuProfile;
use ooo_netsim::link::LinkSpec;
use ooo_netsim::topology::ClusterTopology;

fn bench_ablations(c: &mut Criterion) {
    let gpu = GpuProfile::v100();
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.bench_function("sub_order/densenet121", |b| {
        let m = densenet121(12, 32);
        b.iter(|| sub_order_ablation(&m, 32, &gpu).unwrap())
    });
    group.bench_function("modulo_groups/bert24_eth", |b| {
        let m = bert(24, 128);
        let eth = LinkSpec::ethernet_10g();
        b.iter(|| modulo_group_sweep(&m, 96, 4, &gpu, &eth, 4, &[1, 2, 4], 3).unwrap())
    });
    group.bench_function("k_point/resnet50_16gpu_k40", |b| {
        let m = resnet(50);
        let topo = ClusterTopology::pub_a();
        b.iter(|| k_sweep(&m, 128, &gpu, &topo, 16, &[40]).unwrap())
    });
    group.bench_function("straggler/resnet50_16gpu_3x", |b| {
        let m = resnet(50);
        let topo = ClusterTopology::pub_a();
        b.iter(|| straggler_network(&m, 128, &gpu, &topo, 16, 3.0).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
