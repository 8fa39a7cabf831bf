//! Exact outputs of every cluster-engine path, pinned as golden values:
//! iteration times, throughput bit patterns, chosen `k`, peak memory,
//! exposed synchronization and an FNV-64 digest of each returned
//! timeline's Chrome JSON. Refactors of the engines must reproduce every
//! line byte for byte; the configurations are small enough for the debug
//! profile.

use ooo_backprop::cluster::datapar::{self, CommSystem, FaultEnv};
use ooo_backprop::cluster::hybrid;
use ooo_backprop::cluster::pipeline as cpipe;
use ooo_backprop::cluster::single::{self, Engine};
use ooo_backprop::core::hash::fnv64;
use ooo_backprop::core::op::{LayerId, Op};
use ooo_backprop::core::pipeline::Strategy;
use ooo_backprop::core::trace::Timeline;
use ooo_backprop::models::zoo::{bert, ffnn16, mobilenet_v3_large, resnet};
use ooo_backprop::models::GpuProfile;
use ooo_backprop::netsim::commsim::{LinkFault, LossHandling};
use ooo_backprop::netsim::link::LinkSpec;
use ooo_backprop::netsim::topology::ClusterTopology;

fn digest(tl: &Timeline) -> String {
    format!("{:016x}", fnv64(tl.to_chrome_json().as_bytes()))
}

fn single_line(what: &str, r: &single::SingleGpuReport) -> String {
    format!(
        "{what}: iter_ns={} throughput={:016x} peak_mem={}",
        r.iter_ns,
        r.throughput.to_bits(),
        r.peak_mem
    )
}

fn datapar_line(what: &str, r: &datapar::DataParReport) -> String {
    format!(
        "{what}: iter_ns={} throughput={:016x} k={} exposed_sync_ns={}",
        r.iter_ns,
        r.throughput.to_bits(),
        r.k,
        r.exposed_sync_ns
    )
}

fn pipeline_line(what: &str, r: &cpipe::PipelineReport) -> String {
    format!(
        "{what}: iter_ns={} throughput={:016x} utilization={:016x}",
        r.iter_ns,
        r.throughput.to_bits(),
        r.mean_utilization.to_bits()
    )
}

fn hybrid_line(what: &str, r: &hybrid::HybridReport) -> String {
    format!(
        "{what}: iter_ns={} throughput={:016x} k={}",
        r.iter_ns,
        r.throughput.to_bits(),
        r.k
    )
}

/// Compares line by line so a failure names the first diverging path.
fn assert_lines(got: &[String], want: &str) {
    let want: Vec<&str> = want
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
    assert_eq!(
        got.len(),
        want.len(),
        "line count differs; got:\n{}",
        got.join("\n")
    );
}

const SINGLE: &str = "
run MobileNetV3-Large (a=0.25) TF: iter_ns=9960000 throughput=40a919b3eb701073 peak_mem=375493932
run MobileNetV3-Large (a=0.25) XLA: iter_ns=2887500 throughput=40c5a52023769481 peak_mem=375493932
run MobileNetV3-Large (a=0.25) Nimble: iter_ns=1972033 throughput=40cfb17459838c66 peak_mem=901185436
run MobileNetV3-Large (a=0.25) OOO-XLA(Opt1): iter_ns=1972033 throughput=40cfb17459838c66 peak_mem=375493932
run MobileNetV3-Large (a=0.25) OOO-XLA: iter_ns=1448189 throughput=40d594240e236557 peak_mem=375527212
run ResNet-50 TF: iter_ns=121624704 throughput=407071abcc6a3666 peak_mem=3386534732
run ResNet-50 XLA: iter_ns=120974604 throughput=4070884b127836a6 peak_mem=3386534732
run ResNet-50 Nimble: iter_ns=120974604 throughput=4070884b127836a6 peak_mem=8127683356
run ResNet-50 OOO-XLA(Opt1): iter_ns=120974604 throughput=4070884b127836a6 peak_mem=3386534732
run ResNet-50 OOO-XLA: iter_ns=114145739 throughput=4071857e670bf455 peak_mem=3423306572
run_ooo_with_sub_order eager: iter_ns=114147239 throughput=4071856f501fb3fe peak_mem=3386534732
traced XLA: iter_ns=120974604 throughput=4070884b127836a6 peak_mem=3386534732 timeline=eab0353baba809db
traced OOO-XLA: iter_ns=114145739 throughput=4071857e670bf455 peak_mem=3423306572 timeline=e86c0fdcd8e6cd4d
";

#[test]
fn single_gpu_engine_paths_are_pinned() {
    let gpu = GpuProfile::v100();
    let mut got = Vec::new();
    for m in [mobilenet_v3_large(0.25), resnet(50)] {
        for engine in [
            Engine::TensorFlow,
            Engine::Xla,
            Engine::Nimble,
            Engine::OooXlaOpt1,
            Engine::OooXla,
        ] {
            let r = single::run(&m, 32, &gpu, engine).unwrap();
            got.push(single_line(
                &format!("run {} {}", m.name, engine.name()),
                &r,
            ));
        }
    }
    let m = resnet(50);
    let eager: Vec<Op> = (1..=m.num_layers())
        .rev()
        .map(|i| Op::WeightGrad(LayerId(i)))
        .collect();
    let r = single::run_ooo_with_sub_order(&m, 32, &gpu, &eager).unwrap();
    got.push(single_line("run_ooo_with_sub_order eager", &r));
    // The timelines `ooo-trace export --system single` prints.
    for engine in [Engine::Xla, Engine::OooXla] {
        let r = single::run(&m, 32, &gpu, engine).unwrap();
        let tl = r
            .trace
            .to_timeline(&format!("single/{}/{}", engine.name(), m.name));
        got.push(format!(
            "{} timeline={}",
            single_line(&format!("traced {}", engine.name()), &r),
            digest(&tl)
        ));
    }
    assert_lines(&got, SINGLE);
}

const DATAPAR: &str = "
run Horovod: iter_ns=675724180 throughput=40a7ada5154e10fa k=0 exposed_sync_ns=187232779
run BytePS: iter_ns=579517183 throughput=40ab9bf3dfd16dab k=0 exposed_sync_ns=91025782
run OOO-BytePS: iter_ns=488243809 throughput=40b062a029f83300 k=40 exposed_sync_ns=0
traced OOO-BytePS: iter_ns=488243809 throughput=40b062a029f83300 k=40 exposed_sync_ns=0 timeline=19f2268bed7abd10
fault_injected noop OOO-BytePS: iter_ns=488243809 throughput=40b062a029f83300 k=40 exposed_sync_ns=0 timeline=b5f0573aa90a0fa2
fault_injected noop BytePS: iter_ns=579517183 throughput=40ab9bf3dfd16dab k=0 exposed_sync_ns=91025782 timeline=16be43905c33a991
fault_injected faulted OOO-BytePS: iter_ns=820595499 throughput=40a37f7f3dab9c9f k=5 exposed_sync_ns=87858447 timeline=5c2e40926f732e6a
fault_injected faulted OOO-BytePS k=3: iter_ns=820595499 throughput=40a37f7f3dab9c9f k=3 exposed_sync_ns=87858447 timeline=6845a1b186fd9a9e
fault_injected faulted Horovod: iter_ns=1149754159 throughput=409bd5005c2d17b8 k=0 exposed_sync_ns=417017107 timeline=61a23165df65acde
fixed k=0: iter_ns=579517183 throughput=40ab9bf3dfd16dab k=0 exposed_sync_ns=91025782
fixed k=10: iter_ns=552808697 throughput=40acf16f4f5fa0a3 k=10 exposed_sync_ns=64317296
fixed k=40: iter_ns=488243809 throughput=40b062a029f83300 k=40 exposed_sync_ns=0
";

/// Every fault the environment can inject at once: a compute straggler,
/// a degraded link, and an outage window with chunk-resuming recovery.
fn faulted_env() -> FaultEnv {
    FaultEnv {
        compute_factor: 1.5,
        degrade_factor: 2.0,
        link_fault: LinkFault {
            degraded: vec![(0, 5_000_000, 3.0)],
            outages: vec![(2_000_000, 9_000_000)],
        },
        loss: LossHandling::ResumeChunks {
            backoff_ns: 500_000,
            max_backoff_ns: 4_000_000,
        },
    }
}

#[test]
fn data_parallel_engine_paths_are_pinned() {
    let m = resnet(50);
    let gpu = GpuProfile::v100();
    let topo = ClusterTopology::pub_a();
    let mut got = Vec::new();
    for system in [
        CommSystem::Horovod,
        CommSystem::BytePS,
        CommSystem::OooBytePS,
    ] {
        let r = datapar::run(&m, 128, &gpu, &topo, 16, system).unwrap();
        got.push(datapar_line(&format!("run {}", system.name()), &r));
    }
    // The fault-free traced iteration, under the name `ooo-trace` gives it.
    let (r, mut tl) = datapar::run_fault_injected(
        &m,
        128,
        &gpu,
        &topo,
        16,
        CommSystem::OooBytePS,
        &FaultEnv::none(),
        None,
    )
    .unwrap();
    tl.name = "datapar/OOO-BytePS/16gpus".to_string();
    got.push(format!(
        "{} timeline={}",
        datapar_line("traced OOO-BytePS", &r),
        digest(&tl)
    ));
    let cases: [(&str, CommSystem, FaultEnv, Option<usize>); 5] = [
        (
            "noop OOO-BytePS",
            CommSystem::OooBytePS,
            FaultEnv::none(),
            None,
        ),
        ("noop BytePS", CommSystem::BytePS, FaultEnv::none(), None),
        (
            "faulted OOO-BytePS",
            CommSystem::OooBytePS,
            faulted_env(),
            None,
        ),
        (
            "faulted OOO-BytePS k=3",
            CommSystem::OooBytePS,
            faulted_env(),
            Some(3),
        ),
        ("faulted Horovod", CommSystem::Horovod, faulted_env(), None),
    ];
    for (what, system, env, fixed_k) in cases {
        let (r, tl) =
            datapar::run_fault_injected(&m, 128, &gpu, &topo, 16, system, &env, fixed_k).unwrap();
        got.push(format!(
            "{} timeline={}",
            datapar_line(&format!("fault_injected {what}"), &r),
            digest(&tl)
        ));
    }
    for k in [0usize, 10, 40] {
        let (r, _) = datapar::run_fault_injected(
            &m,
            128,
            &gpu,
            &topo,
            16,
            CommSystem::OooBytePS,
            &FaultEnv::none(),
            Some(k),
        )
        .unwrap();
        got.push(datapar_line(&format!("fixed k={k}"), &r));
    }
    assert_lines(&got, DATAPAR);
}

const PIPELINE_AND_HYBRID: &str = "
pipeline GPipe: iter_ns=2068901 throughput=40fe359311e7c7a9 utilization=3fe1bd6a90f96592
pipeline OooPipe2: iter_ns=1321538 throughput=4107a58d8150abda utilization=3feb8d66f6798887
run_combined k=2: iter_ns=383861927 throughput=406f42e0a77a34fd k=2
run_combined_traced k=2: iter_ns=383861927 throughput=406f42e0a77a34fd k=2 timeline=e0167e7a556a7dc1
run_combined_best_k: iter_ns=383861927 throughput=406f42e0a77a34fd k=0
";

#[test]
fn pipeline_and_hybrid_engine_paths_are_pinned() {
    let gpu = GpuProfile::v100();
    let nv = LinkSpec::nvlink();
    let eth = LinkSpec::ethernet_10g();
    let mut got = Vec::new();
    let m = ffnn16(1_024);
    for strategy in [Strategy::GPipe, Strategy::OooPipe2] {
        let r = cpipe::run(&m, 256, 4, &gpu, &nv, 4, strategy, 1, 3).unwrap();
        got.push(pipeline_line(&format!("pipeline {strategy:?}"), &r));
    }
    let m = bert(4, 128);
    let r = hybrid::run_combined(&m, 32, 4, &gpu, &nv, &eth, 2, 3, 2, 3).unwrap();
    got.push(hybrid_line("run_combined k=2", &r));
    let (r, tl) = hybrid::run_combined_traced(&m, 32, 4, &gpu, &nv, &eth, 2, 3, 2, 3).unwrap();
    got.push(format!(
        "{} timeline={}",
        hybrid_line("run_combined_traced k=2", &r),
        digest(&tl)
    ));
    let r = hybrid::run_combined_best_k(&m, 32, 4, &gpu, &nv, &eth, 2, 3, 3).unwrap();
    got.push(hybrid_line("run_combined_best_k", &r));
    assert_lines(&got, PIPELINE_AND_HYBRID);
}
