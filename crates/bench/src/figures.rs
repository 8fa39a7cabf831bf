//! Generators for every table and figure of the paper's evaluation.
//!
//! Each function reruns the relevant experiment on the simulated
//! substrates and reports the measured rows next to the paper's claim.
//! Absolute throughputs are synthetic; the comparisons (who wins, rough
//! factor, crossover locations) are the reproduction targets.

use crate::FigureReport;
use ooo_cluster::ablation::{k_sweep, modulo_group_sweep, straggler_network, sub_order_ablation};
use ooo_cluster::analysis::{region_anatomy, sync_budget};
use ooo_cluster::datapar::{self, CommSystem};
use ooo_cluster::hybrid::{run_combined, run_combined_best_k};
use ooo_cluster::pipeline as cpipe;
use ooo_cluster::single::{self, Engine};
use ooo_core::cost::{LayerCost, TableCost};
use ooo_core::datapar::{simulate_data_parallel_with_tail, CommPolicy};
use ooo_core::graph::TrainGraph;
use ooo_core::op::LayerId;
use ooo_core::pipeline::{simulate_pipeline, PipelineConfig, Strategy};
use ooo_core::reverse_k::{reverse_first_k, search_optimal_k};
use ooo_models::zoo;
use ooo_models::GpuProfile;
use ooo_netsim::link::LinkSpec;
use ooo_netsim::topology::ClusterTopology;

/// Table 1: models, datasets, and evaluation setup.
pub fn table1() -> FigureReport {
    let mut lines = vec![format!(
        "{:<24} {:<12} {:<28} {:>8} {:>12}",
        "model", "dataset", "training method", "layers", "params"
    )];
    for (m, dataset, method) in zoo::table1() {
        lines.push(format!(
            "{:<24} {:<12} {:<28} {:>8} {:>10.1} MB",
            m.name,
            dataset,
            method,
            m.num_layers(),
            m.param_bytes() as f64 / 1e6
        ));
    }
    FigureReport {
        id: "table1",
        title: "Models, datasets, and evaluation setup",
        paper: "twelve networks across vision and NLP, five public datasets",
        lines,
    }
}

/// Table 2: GPU cluster settings.
pub fn table2() -> FigureReport {
    let mut lines = vec![format!(
        "{:<8} {:<10} {:>6} {:>10} {:>12} {:>12}",
        "cluster", "GPU", "nodes", "GPUs/node", "intra", "inter"
    )];
    for (t, gpu) in [
        (ClusterTopology::priv_a(), "TitanXP"),
        (ClusterTopology::priv_b(), "P100"),
        (ClusterTopology::pub_a(), "V100"),
        (ClusterTopology::pub_b(), "V100"),
    ] {
        lines.push(format!(
            "{:<8} {:<10} {:>6} {:>10} {:>12} {:>12}",
            t.name, gpu, t.nodes, t.gpus_per_node, t.intra.name, t.inter.name
        ));
    }
    FigureReport {
        id: "table2",
        title: "GPU cluster settings",
        paper: "Priv-A 8x TitanXP, Priv-B 20x P100, Pub-A 48x V100, Pub-B 40x V100",
        lines,
    }
}

/// Figure 1: kernel issue overhead vs execution time per DenseBlock.
pub fn fig1() -> FigureReport {
    let model = zoo::densenet121(12, 32);
    let gpu = GpuProfile::v100();
    let series = single::issue_analysis(&model, 32, &gpu).expect("issue analysis");
    let mut lines = vec![format!(
        "{:<14} {:>8} {:>14} {:>13} {:>12}",
        "region", "kernels", "mean issue-gap", "mean exec", "gap/exec"
    )];
    for block in ["block1", "block2", "block3", "block4"] {
        let rows: Vec<_> = series
            .iter()
            .filter(|(n, _, _)| n.starts_with(block) && n.contains("conv"))
            .collect();
        if rows.is_empty() {
            continue;
        }
        let gap: f64 = rows.iter().map(|(_, g, _)| *g as f64).sum::<f64>() / rows.len() as f64;
        let exec: f64 = rows.iter().map(|(_, _, e)| *e as f64).sum::<f64>() / rows.len() as f64;
        lines.push(format!(
            "{:<14} {:>8} {:>11.1} us {:>10.1} us {:>12.2}",
            block,
            rows.len(),
            gap / 1e3,
            exec / 1e3,
            gap / exec.max(1.0)
        ));
    }
    FigureReport {
        id: "fig1",
        title: "Kernel issue overhead for DenseNet-121 convolutions",
        paper: "issue overhead up to 4x execution time in DenseBlock-3/4",
        lines,
    }
}

/// Figure 2: the issue-masking timeline of training DenseNet-121.
pub fn fig2() -> FigureReport {
    let model = zoo::densenet121(12, 32);
    let gpu = GpuProfile::v100();
    let series = single::issue_analysis(&model, 32, &gpu).expect("issue analysis");
    let half = series.len() / 2;
    let exposed_first: u64 = series[..half].iter().map(|(_, g, _)| *g).sum();
    let exposed_second: u64 = series[half..].iter().map(|(_, g, _)| *g).sum();
    let exec_total: u64 = series.iter().map(|(_, _, e)| *e).sum();
    let lines = vec![
        format!(
            "total kernel execution           : {:>8.2} ms",
            exec_total as f64 / 1e6
        ),
        format!(
            "exposed issue gaps, first half   : {:>8.2} ms",
            exposed_first as f64 / 1e6
        ),
        format!(
            "exposed issue gaps, second half  : {:>8.2} ms",
            exposed_second as f64 / 1e6
        ),
        format!(
            "second-half share of exposed gaps: {:>8.0} %",
            100.0 * exposed_second as f64 / (exposed_first + exposed_second).max(1) as f64
        ),
    ];
    FigureReport {
        id: "fig2",
        title: "Timeline of training DenseNet-121 (issue masking)",
        paper: "issue overhead masked early, exposed by the end of Block-4",
        lines,
    }
}

/// Figure 3: the dependency structure conventional backprop adds vs what
/// the data actually requires.
pub fn fig3() -> FigureReport {
    let g = TrainGraph::single_gpu(2);
    let mut lines = vec!["true data dependencies (2 layers):".to_string()];
    for &op in g.ops() {
        let deps = g.deps(op).expect("op in graph");
        let deps: Vec<String> = deps.iter().map(|d| d.to_string()).collect();
        lines.push(format!("  {:<6} <- {}", op.to_string(), deps.join(", ")));
    }
    lines.push("dW_i feeds only its own update: out-of-order backprop may delay it.".into());
    FigureReport {
        id: "fig3",
        title: "Dependencies of gradient computations",
        paper: "dW is a leaf: only U_i consumes it",
        lines,
    }
}

/// Figure 4: data-parallel unit-time timelines (conventional /
/// prioritized communication / prioritized computation).
///
/// The toy model mirrors the figure: five layers, unit compute, the two
/// last layers carry the bulk of the parameters (as in ResNet), and each
/// synchronization has a pipelined aggregation tail.
pub fn fig4() -> FigureReport {
    let l = 5;
    let tail = 3;
    let graph = TrainGraph::data_parallel(l);
    let mut cost = TableCost::uniform(
        l,
        LayerCost {
            sync_weight: 1,
            ..LayerCost::default()
        },
    );
    cost.layer_mut(LayerId(4)).sync_weight = 4;
    cost.layer_mut(LayerId(5)).sync_weight = 4;
    let order0 = reverse_first_k::<TableCost>(&graph, 0, None).expect("k=0");
    let a =
        simulate_data_parallel_with_tail(&graph, &order0, &cost, CommPolicy::FifoCompletion, tail)
            .expect("fifo")
            .makespan();
    let b =
        simulate_data_parallel_with_tail(&graph, &order0, &cost, CommPolicy::PriorityByLayer, tail)
            .expect("priority")
            .makespan();
    let best_k = search_optimal_k(l, |k| {
        let order = reverse_first_k::<TableCost>(&graph, k, None).expect("k");
        let m = simulate_data_parallel_with_tail(
            &graph,
            &order,
            &cost,
            CommPolicy::PriorityByLayer,
            tail,
        )
        .expect("sim")
        .makespan();
        -(m as f64)
    });
    let orderk = reverse_first_k::<TableCost>(&graph, best_k, None).expect("best k");
    let c =
        simulate_data_parallel_with_tail(&graph, &orderk, &cost, CommPolicy::PriorityByLayer, tail)
            .expect("sim")
            .makespan();
    let lines = vec![
        format!("(a) conventional (FIFO completion)       : {a} units"),
        format!("(b) prioritized communication            : {b} units"),
        format!("(c) + prioritized computation (k = {best_k})    : {c} units"),
        format!(
            "gain of (c): {:.0}% over (a), {:.0}% over (b)",
            100.0 * (a as f64 / c as f64 - 1.0),
            100.0 * (b as f64 / c as f64 - 1.0)
        ),
    ];
    FigureReport {
        id: "fig4",
        title: "Data-parallel training timelines (unit time)",
        paper: "prioritizing computations gains 16% over (a) and 12% over (b)",
        lines,
    }
}

fn pipeline_unit_report(
    id: &'static str,
    title: &'static str,
    paper: &'static str,
    configs: Vec<(&'static str, PipelineConfig)>,
) -> FigureReport {
    let mut lines = Vec::new();
    for (label, cfg) in configs {
        let r = simulate_pipeline(&cfg).expect("pipeline sim");
        lines.push(format!("--- {label}: makespan {} units ---", r.makespan()));
        for row in r.render_ascii().lines() {
            lines.push(row.to_string());
        }
    }
    FigureReport {
        id,
        title,
        paper,
        lines,
    }
}

/// Figure 5: cross-layer model parallelism, 8 layers on 2 GPUs.
pub fn fig5() -> FigureReport {
    pipeline_unit_report(
        "fig5",
        "Cross-layer model parallelism (8 layers, 2 GPUs)",
        "23 units conventional, 19 with fast-forwarding, 16 with modulo allocation",
        vec![
            (
                "(a) conventional",
                PipelineConfig::unit(8, 2, 1, Strategy::ModelParallel),
            ),
            (
                "(b) gradient fast-forwarding",
                PipelineConfig::unit(8, 2, 1, Strategy::OooPipe1),
            ),
            (
                "(c) + modulo allocation",
                PipelineConfig::unit(8, 2, 1, Strategy::OooPipe2),
            ),
        ],
    )
}

/// Figure 6: pipeline parallelism with micro-batches (2 GPUs, 2 micros).
pub fn fig6() -> FigureReport {
    pipeline_unit_report(
        "fig6",
        "Pipeline parallelism with micro-batches (8 layers, 2 GPUs, 2 micro-batches)",
        "fast-forwarding overlaps dW/dO; modulo allocation shrinks the forward stall",
        vec![
            (
                "(a) conventional (GPipe)",
                PipelineConfig::unit(8, 2, 2, Strategy::GPipe),
            ),
            (
                "(b) gradient fast-forwarding",
                PipelineConfig::unit(8, 2, 2, Strategy::OooPipe1),
            ),
            (
                "(c) + modulo allocation",
                PipelineConfig::unit(8, 2, 2, Strategy::OooPipe2),
            ),
        ],
    )
}

/// Figure 7: single-GPU training throughput under the five engines.
pub fn fig7() -> FigureReport {
    let gpu = GpuProfile::v100();
    let mut lines = vec![format!(
        "{:<28} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "model", "batch", "TF", "XLA", "Nimble", "+Opt1", "+Opt1+2"
    )];
    let models = vec![
        zoo::densenet121(12, 32),
        zoo::densenet121(32, 32),
        zoo::densenet169(12, 32),
        zoo::mobilenet_v3_large(0.25),
        zoo::mobilenet_v3_large(1.0),
        zoo::resnet(50),
        zoo::resnet(101),
    ];
    for model in &models {
        for batch in [32usize, 64] {
            let engines = [
                Engine::TensorFlow,
                Engine::Xla,
                Engine::Nimble,
                Engine::OooXlaOpt1,
                Engine::OooXla,
            ];
            let results: Vec<Option<f64>> = engines
                .iter()
                .map(|&e| {
                    single::run(model, batch, &gpu, e)
                        .ok()
                        .map(|r| r.throughput)
                })
                .collect();
            let xla = results[1].unwrap_or(1.0);
            let cells: Vec<String> = engines
                .iter()
                .zip(&results)
                .map(|(&e, r)| match r {
                    None => format!("{:>9}", "N/A"),
                    Some(t) if e == Engine::Xla => format!("{t:>7.0}/s"),
                    Some(t) => format!("{:>8.2}x", t / xla),
                })
                .collect();
            lines.push(format!(
                "{:<28} {:>5} {}",
                model.name,
                batch,
                cells.join(" ")
            ));
        }
    }
    lines.push("(XLA column = absolute samples/s; other columns normalized to XLA)".into());
    FigureReport {
        id: "fig7",
        title: "Single-GPU training throughput (V100)",
        paper: "OOO-XLA 1.03-1.58x over XLA; >= Nimble everywhere; Nimble OOM at 64+",
        lines,
    }
}

/// Figure 8: the main/sub-stream region schedule for DenseNet-121.
pub fn fig8() -> FigureReport {
    let model = zoo::densenet121(12, 32);
    let gpu = GpuProfile::v100();
    let plan = single::region_plan(&model, 32, &gpu).expect("region plan");
    let mut lines = Vec::new();
    for (region, kernels) in &plan {
        let preview: Vec<&str> = kernels.iter().take(3).map(|s| s.as_str()).collect();
        lines.push(format!(
            "{:<22} {} dW kernels{}{}",
            region,
            kernels.len(),
            if kernels.is_empty() { "" } else { ": " },
            preview.join(", ")
        ));
    }
    FigureReport {
        id: "fig8",
        title: "Multi-region schedule of DenseNet-121 (main vs sub stream)",
        paper: "DenseBlock-4's dW kernels are delayed into the next forward pass",
        lines,
    }
}

/// Figure 9: memory over the backward pass, conventional vs ooo.
pub fn fig9() -> FigureReport {
    let model = zoo::densenet121(12, 32);
    let gpu = GpuProfile::v100();
    let (conv, ooo) = single::memory_series(&model, 32, &gpu).expect("memory series");
    let peak = |s: &[(usize, u64)]| s.iter().map(|&(_, m)| m).max().unwrap_or(0);
    let mut lines = vec![format!(
        "peak conventional {:.1} MB, peak ooo {:.1} MB (+{:.2}%)",
        peak(&conv) as f64 / 1e6,
        peak(&ooo) as f64 / 1e6,
        100.0 * (peak(&ooo) as f64 / peak(&conv) as f64 - 1.0)
    )];
    lines.push(format!(
        "{:>8} {:>16} {:>16}",
        "layer", "conventional MB", "ooo MB"
    ));
    for i in (0..conv.len()).step_by(conv.len() / 12 + 1) {
        let (l, c) = conv[i];
        let o = ooo
            .iter()
            .find(|&&(ol, _)| ol == l)
            .map(|&(_, m)| m)
            .unwrap_or(0);
        lines.push(format!(
            "{:>8} {:>16.1} {:>16.1}",
            l,
            c as f64 / 1e6,
            o as f64 / 1e6
        ));
    }
    FigureReport {
        id: "fig9",
        title: "Memory overhead of the backward pass, DenseNet-121",
        paper: "up to 200 MB more mid-pass but peak only +0.1% (10 MB)",
        lines,
    }
}

/// Figure 10: data-parallel throughput on the three clusters.
pub fn fig10() -> FigureReport {
    let mut lines = Vec::new();
    let sweeps: Vec<(&str, ClusterTopology, GpuProfile, Vec<usize>, usize)> = vec![
        (
            "Priv-A/TitanXP",
            ClusterTopology::priv_a(),
            GpuProfile::titan_xp(),
            vec![1, 2, 4, 8],
            64,
        ),
        (
            "Priv-B/P100",
            ClusterTopology::priv_b(),
            GpuProfile::p100(),
            vec![1, 4, 8, 20],
            64,
        ),
        (
            "Pub-A/V100",
            ClusterTopology::pub_a(),
            GpuProfile::v100(),
            vec![1, 8, 16, 32, 48],
            128,
        ),
    ];
    for model in [zoo::resnet(50), zoo::resnet(101)] {
        for (name, topo, gpu, gpu_counts, batch) in &sweeps {
            lines.push(format!(
                "--- {} on {name} (batch {batch}/GPU) ---",
                model.name
            ));
            lines.push(format!(
                "{:>6} {:>12} {:>12} {:>12} {:>8} {:>10}",
                "GPUs", "Horovod/s", "BytePS/s", "OOO/s", "k", "OOO/BytePS"
            ));
            for &gpus in gpu_counts {
                let h = datapar::run(&model, *batch, gpu, topo, gpus, CommSystem::Horovod)
                    .expect("horovod");
                let b = datapar::run(&model, *batch, gpu, topo, gpus, CommSystem::BytePS)
                    .expect("byteps");
                let o = datapar::run(&model, *batch, gpu, topo, gpus, CommSystem::OooBytePS)
                    .expect("ooo");
                lines.push(format!(
                    "{:>6} {:>12.0} {:>12.0} {:>12.0} {:>8} {:>9.2}x",
                    gpus,
                    h.throughput,
                    b.throughput,
                    o.throughput,
                    o.k,
                    o.throughput / b.throughput
                ));
            }
        }
    }
    FigureReport {
        id: "fig10",
        title: "Data-parallel training throughput",
        paper: "OOO-BytePS 1.10-1.27x over BytePS at 16-48 GPUs; Horovod far behind",
        lines,
    }
}

/// Figure 11a: pipeline fine-tuning on 4 V100s (RNN, BERT-24, FFNN).
pub fn fig11a() -> FigureReport {
    let gpu = GpuProfile::v100();
    let nv = LinkSpec::nvlink();
    let mut lines = vec![format!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "model", "model-par", "GPipe", "OOO-Pipe1", "OOO-Pipe2", "Pipe2/GPipe"
    )];
    let cases: Vec<(&str, ooo_models::ModelSpec, usize, usize)> = vec![
        ("RNN-16", zoo::rnn16(1_024, 50), 1_024, 1),
        ("BERT-24", zoo::bert(24, 128), 96, 4),
        ("FFNN-16", zoo::ffnn16(4_096), 1_024, 4),
    ];
    for (name, model, batch, micros) in cases {
        let mp = cpipe::run(
            &model,
            batch,
            1,
            &gpu,
            &nv,
            4,
            Strategy::ModelParallel,
            1,
            4,
        )
        .expect("mp")
        .throughput;
        let gp = cpipe::run(&model, batch, micros, &gpu, &nv, 4, Strategy::GPipe, 1, 4)
            .expect("gpipe")
            .throughput;
        let p1 = cpipe::run(
            &model,
            batch,
            micros,
            &gpu,
            &nv,
            4,
            Strategy::OooPipe1,
            1,
            4,
        )
        .expect("p1")
        .throughput;
        let p2 = cpipe::run(
            &model,
            batch,
            micros,
            &gpu,
            &nv,
            4,
            Strategy::OooPipe2,
            1,
            4,
        )
        .expect("p2")
        .throughput;
        lines.push(format!(
            "{name:<10} {mp:>10.1} {gp:>10.1} {p1:>10.1} {p2:>10.1} {:>11.2}x",
            p2 / gp
        ));
    }
    FigureReport {
        id: "fig11a",
        title: "Pipeline fine-tuning throughput on 4x V100 (seqs/s)",
        paper: "OOO-Pipe2: 1.99x GPipe on RNN, 1.59x on BERT, 1.5x on FFNN",
        lines,
    }
}

/// Figure 11b: BERT-24 across NVLink / PCIe / 10 GbE.
pub fn fig11b() -> FigureReport {
    let model = zoo::bert(24, 128);
    let gpu = GpuProfile::v100();
    let mut lines = vec![format!(
        "{:<22} {:>9} {:>11} {:>11} {:>12}",
        "interconnect", "GPipe", "PipeDream", "OOO-Pipe2", "Pipe2/GPipe"
    )];
    for (name, link, group) in [
        ("NVLink", LinkSpec::nvlink(), 1usize),
        ("PCIe 3.0", LinkSpec::pcie3(), 1),
        ("10GbE (per-layer)", LinkSpec::ethernet_10g(), 1),
        ("10GbE (grouped x2)", LinkSpec::ethernet_10g(), 2),
    ] {
        let gp = cpipe::run(&model, 96, 4, &gpu, &link, 4, Strategy::GPipe, 1, 5)
            .expect("gpipe")
            .throughput;
        let pd = cpipe::run(&model, 96, 4, &gpu, &link, 4, Strategy::PipeDream, 1, 5)
            .expect("pd")
            .throughput;
        let p2 = cpipe::run(&model, 96, 4, &gpu, &link, 4, Strategy::OooPipe2, group, 5)
            .expect("p2")
            .throughput;
        lines.push(format!(
            "{name:<22} {gp:>9.1} {pd:>11.1} {p2:>11.1} {:>11.2}x",
            p2 / gp
        ));
    }
    FigureReport {
        id: "fig11b",
        title: "BERT-24 pipeline training across interconnects (seqs/s)",
        paper: "+70% NVLink, +58% PCIe, +48% Ethernet (with 2x transformer grouping)",
        lines,
    }
}

/// Figure 12: the GPipe / OOO-Pipe1 / OOO-Pipe2 schedules of an 8-layer
/// FFNN on 4 GPUs.
pub fn fig12() -> FigureReport {
    pipeline_unit_report(
        "fig12",
        "Pipeline schedules of an 8-layer FFNN (4 GPUs, 2 micro-batches)",
        "fast-forwarding 1.22x and with modulo allocation 1.62x over GPipe (16-layer analysis)",
        vec![
            ("(a) GPipe", PipelineConfig::unit(8, 4, 2, Strategy::GPipe)),
            (
                "(b) OOO-Pipe1",
                PipelineConfig::unit(8, 4, 2, Strategy::OooPipe1),
            ),
            (
                "(c) OOO-Pipe2",
                PipelineConfig::unit(8, 4, 2, Strategy::OooPipe2),
            ),
        ],
    )
}

/// Figure 13a: weak scaling of BERT pre-training.
pub fn fig13a() -> FigureReport {
    let gpu = GpuProfile::v100();
    let nv = LinkSpec::nvlink();
    let mut lines = vec![format!(
        "{:>6} {:<10} {:>10} {:>11} {:>11} {:>12}",
        "GPUs", "model", "GPipe", "PipeDream", "OOO-Pipe2", "Pipe2/GPipe"
    )];
    for (gpus, layers, batch) in [(8usize, 12usize, 512usize), (16, 24, 512), (32, 48, 1_024)] {
        let model = zoo::bert(layers, 128);
        // Pre-training uses enough micro-batches to keep deep pipelines
        // full (the paper picks batch sizes "that give the maximum
        // performance for each system").
        let micros = (2 * gpus).min(batch);
        let gp = cpipe::run(
            &model,
            batch,
            micros,
            &gpu,
            &nv,
            gpus,
            Strategy::GPipe,
            1,
            4,
        )
        .expect("gpipe")
        .throughput;
        let pd = cpipe::run(
            &model,
            batch,
            micros,
            &gpu,
            &nv,
            gpus,
            Strategy::PipeDream,
            1,
            4,
        )
        .expect("pd")
        .throughput;
        let p2 = cpipe::run(
            &model,
            batch,
            micros,
            &gpu,
            &nv,
            gpus,
            Strategy::OooPipe2,
            1,
            4,
        )
        .expect("p2")
        .throughput;
        lines.push(format!(
            "{gpus:>6} {:<10} {gp:>10.0} {pd:>11.0} {p2:>11.0} {:>11.2}x",
            model.name,
            p2 / gp
        ));
    }
    FigureReport {
        id: "fig13a",
        title: "Weak scaling of BERT pre-training (seqs/s)",
        paper: "1.73x over GPipe at 8 GPUs; 1.41-1.45x at 16-32; gain does not shrink",
        lines,
    }
}

/// Figure 13b: strong scaling of BERT-24/48 and GPT-3, plus the DAPPLE
/// and Megatron reference points.
pub fn fig13b() -> FigureReport {
    let gpu = GpuProfile::v100();
    let nv = LinkSpec::nvlink();
    let mut lines = vec![format!(
        "{:<14} {:>6} {:>12} {:>14} {:>12}",
        "model", "GPUs", "OOO-Pipe2/s", "vs DAPPLE", "vs Megatron"
    )];
    for (model, per_micro, gpus_list) in [
        (zoo::bert(24, 128), 32usize, vec![8usize, 16, 24]),
        (zoo::bert(48, 128), 32, vec![8, 16, 24]),
        (zoo::gpt3_medium(), 8, vec![8, 13, 26]),
    ] {
        for &gpus in &gpus_list {
            if gpus > model.num_layers() {
                continue;
            }
            let micros = 2 * gpus;
            let batch = micros * per_micro;
            let p2 = cpipe::run(
                &model,
                batch,
                micros,
                &gpu,
                &nv,
                gpus,
                Strategy::OooPipe2,
                1,
                4,
            )
            .expect("p2")
            .throughput;
            let dapple = cpipe::run(
                &model,
                batch,
                micros,
                &gpu,
                &nv,
                gpus,
                Strategy::Dapple,
                1,
                4,
            )
            .expect("dapple")
            .throughput;
            let mega = cpipe::run(
                &model,
                batch,
                micros,
                &gpu,
                &nv,
                gpus,
                Strategy::MegatronInterleaved { chunks: 2 },
                1,
                4,
            )
            .expect("megatron")
            .throughput;
            lines.push(format!(
                "{:<14} {gpus:>6} {p2:>12.0} {:>13.2}x {:>11.2}x",
                model.name,
                p2 / dapple,
                p2 / mega
            ));
        }
    }
    lines.push("(GPT-3 rows use 13/26 pipeline GPUs standing in for the paper's".into());
    lines.push(" 12+4/24+4 split with dedicated embedding GPUs)".into());
    FigureReport {
        id: "fig13b",
        title: "Strong scaling and DAPPLE/Megatron comparison",
        paper: "1.29-1.47x over DAPPLE; 1.14-1.29x over Megatron 2",
        lines,
    }
}

/// Section 6: combined reverse-first-k + fast-forwarding.
pub fn sec6() -> FigureReport {
    let model = zoo::bert(12, 128);
    let gpu = GpuProfile::v100();
    let nv = LinkSpec::nvlink();
    let eth = LinkSpec::ethernet_10g();
    let base = run_combined(&model, 96, 4, &gpu, &nv, &eth, 4, 4, 0, 4).expect("base");
    let best = run_combined_best_k(&model, 96, 4, &gpu, &nv, &eth, 4, 4, 4).expect("best");
    let lines = vec![
        format!(
            "hybrid 4x(4-GPU pipeline), no sync reordering : {:>9.1} seqs/s",
            base.throughput
        ),
        format!(
            "hybrid with reverse first-k (k = {:>2})           : {:>9.1} seqs/s (+{:.1}%)",
            best.k,
            best.throughput,
            100.0 * (best.throughput / base.throughput - 1.0)
        ),
    ];
    FigureReport {
        id: "sec6",
        title: "Combining reverse first-k with gradient fast-forwarding",
        paper: "the two compose; optimal split left as future work",
        lines,
    }
}

/// Section 6's second half: reverse first-k composed with checkpointing
/// and re-computation (extension figure).
pub fn recompute() -> FigureReport {
    use ooo_core::memory::memory_profile;
    use ooo_core::recompute::{checkpointed_memory_profile, RecomputePlan};
    use ooo_models::cost::to_table_cost;

    let model = zoo::resnet(50);
    let gpu = GpuProfile::v100();
    let cost = to_table_cost(&model, 64, &gpu);
    let l = model.num_layers();
    let graph = TrainGraph::data_parallel(l);
    let plan = RecomputePlan::sqrt_heuristic(l);
    let conv = reverse_first_k::<TableCost>(&graph, 0, None).expect("k=0");
    let full = memory_profile(&graph, &conv, &cost).expect("profile").peak;
    let (ckpt_conv, _) = checkpointed_memory_profile(&graph, &plan, &conv, &cost).expect("ckpt");
    // The paper: "we have some amount of available memory to re-order
    // those k (or maybe fewer) weight gradient computations" — find the
    // largest k whose peak stays within 1.1x of the checkpointed
    // conventional peak.
    let budget = ckpt_conv + ckpt_conv / 10;
    let peak_at = |k: usize| -> u64 {
        let order = reverse_first_k::<TableCost>(&graph, k, None).expect("order");
        checkpointed_memory_profile(&graph, &plan, &order, &cost)
            .expect("profile")
            .0
    };
    let max_k = (0..=l).rev().find(|&k| peak_at(k) <= budget).unwrap_or(0);
    let extra = plan.extra_forward_ns(&cost);
    let lines = vec![
        format!("activations, no checkpointing            : {:>8.2} GB peak", full as f64 / 1e9),
        format!(
            "sqrt(L) checkpointing, conventional      : {:>8.2} GB peak",
            ckpt_conv as f64 / 1e9
        ),
        format!(
            "largest k within the 1.1x envelope       : k = {max_k} ({:>6.2} GB peak)",
            peak_at(max_k) as f64 / 1e9
        ),
        format!(
            "for reference, unclamped reverse first-45: {:>8.2} GB peak (early ResNet activations are the big ones)",
            peak_at(45) as f64 / 1e9
        ),
        format!("re-computation overhead                  : {:>8.2} ms extra forward", extra as f64 / 1e6),
    ];
    FigureReport {
        id: "recompute",
        title: "Checkpointing + reverse first-k (ResNet-50, batch 64)",
        paper: "Sec 6: the reordering fits the checkpointing memory envelope",
        lines,
    }
}

/// Ablations: each mechanism's contribution and trade-off crossovers
/// (extensions beyond the paper's own tables).
pub fn ablations() -> FigureReport {
    let gpu = GpuProfile::v100();
    let mut lines = Vec::new();

    let a = sub_order_ablation(&zoo::densenet121(12, 32), 32, &gpu).expect("sub order");
    lines.push("--- sub-stream ordering, DenseNet-121 (k=12, batch 32) ---".to_string());
    lines.push(format!(
        "  Opt1 only (no sub-stream)        : {:>9.0} samples/s",
        a.opt1_only
    ));
    lines.push(format!(
        "  eager order (no joint scheduling): {:>9.0} samples/s ({:+.1}%)",
        a.eager,
        100.0 * (a.eager / a.opt1_only - 1.0)
    ));
    lines.push(format!(
        "  Algorithm 1                      : {:>9.0} samples/s ({:+.1}%)",
        a.algorithm1,
        100.0 * (a.algorithm1 / a.opt1_only - 1.0)
    ));

    lines.push("--- modulo group size, BERT-24 on 4 GPUs ---".to_string());
    for (link_name, link) in [
        ("NVLink", LinkSpec::nvlink()),
        ("10GbE", LinkSpec::ethernet_10g()),
    ] {
        let sweep =
            modulo_group_sweep(&zoo::bert(24, 128), 96, 4, &gpu, &link, 4, &[1, 2, 4, 6], 4)
                .expect("sweep");
        let row: Vec<String> = sweep
            .iter()
            .map(|(g, t)| format!("g={g}: {t:.0}"))
            .collect();
        lines.push(format!("  {link_name:<8} {}", row.join("  ")));
    }

    lines.push("--- k sweep, ResNet-50, 16x V100 (concavity) ---".to_string());
    let ks = [0usize, 10, 20, 40, 80, 160];
    let sweep = k_sweep(
        &zoo::resnet(50),
        128,
        &gpu,
        &ClusterTopology::pub_a(),
        16,
        &ks,
    )
    .expect("k sweep");
    let row: Vec<String> = sweep
        .iter()
        .map(|(k, t)| format!("k={k}: {t:.0}"))
        .collect();
    lines.push(format!("  {}", row.join("  ")));

    lines.push("--- straggler network (inter-node bandwidth / N) ---".to_string());
    for factor in [1.0f64, 2.0, 4.0] {
        let s = straggler_network(
            &zoo::resnet(50),
            128,
            &gpu,
            &ClusterTopology::pub_a(),
            16,
            factor,
        )
        .expect("straggler");
        lines.push(format!(
            "  /{factor:.0}: BytePS {:>7.0}  OOO {:>7.0}  gain {:.2}x  k={}",
            s.byteps,
            s.ooo_byteps,
            s.ooo_byteps / s.byteps,
            s.chosen_k
        ));
    }
    FigureReport {
        id: "ablations",
        title: "Mechanism ablations (extension)",
        paper: "multi-stream w/o re-ordering 1.39x vs 1.54x full (Sec 8.2); grouping on Ethernet (Sec 8.4)",
        lines,
    }
}

/// Section 8.2 discussion: R2 vs R5 anatomy.
pub fn sec82() -> FigureReport {
    let model = zoo::densenet121(12, 32);
    let gpu = GpuProfile::v100();
    let rows = region_anatomy(&model, 32, &gpu);
    let mut lines = vec![format!(
        "{:<22} {:>8} {:>12} {:>10}",
        "region", "kernels", "saturated", "headroom"
    )];
    for r in rows {
        lines.push(format!(
            "{:<22} {:>8} {:>11.0}% {:>9.0}%",
            r.name,
            r.kernels,
            r.saturated_fraction * 100.0,
            r.mean_headroom * 100.0
        ));
    }
    FigureReport {
        id: "sec82",
        title: "Per-region SM saturation of DenseNet-121's backward pass",
        paper: "R2's dO kernels saturate the SMs (6% gain); R5 leaves headroom (10%)",
        lines,
    }
}

/// Section 8.3 discussion: the ResNet-50 synchronization budget.
pub fn sec83() -> FigureReport {
    let model = zoo::resnet(50);
    let gpu = GpuProfile::v100();
    let topo = ClusterTopology::pub_a();
    let b = sync_budget(&model, 128, &gpu, &topo, 16, 45).expect("budget");
    let base = datapar::run(&model, 128, &gpu, &topo, 16, CommSystem::BytePS).expect("byteps");
    let ooo = datapar::run(&model, 128, &gpu, &topo, 16, CommSystem::OooBytePS).expect("ooo");
    let lines = vec![
        format!(
            "backward compute                    : {:>8.0} ms",
            b.backward_ns as f64 / 1e6
        ),
        format!(
            "dW_1 advanced by reverse first-45   : {:>8.0} ms",
            b.dw1_advanced_ns as f64 / 1e6
        ),
        format!(
            "exposed sync, BytePS                : {:>8.0} ms",
            base.exposed_sync_ns as f64 / 1e6
        ),
        format!(
            "exposed sync, OOO-BytePS (k = {:>3})   : {:>8.0} ms",
            ooo.k,
            ooo.exposed_sync_ns as f64 / 1e6
        ),
        format!(
            "overall speedup                     : {:>8.2}x",
            ooo.throughput / base.throughput
        ),
    ];
    FigureReport {
        id: "sec83",
        title: "ResNet-50 on 16 V100s: where the 27% comes from",
        paper: "350 ms of synchronization reduced to 200 ms; 27% overall",
        lines,
    }
}

/// Trace metrics: the headline observability numbers derived from the
/// unified timelines (`ooo_core::trace`) — SM occupancy and per-stream
/// stall time on the single GPU, link utilization under data parallelism,
/// and the pipeline bubble fraction.
pub fn tracemetrics() -> FigureReport {
    let gpu = GpuProfile::v100();
    let mut lines = vec![format!(
        "{:<34} {:<10} {:>10} {:>7} {:>7}",
        "configuration", "lane", "busy ms", "stall%", "util%"
    )];
    let mut add = |cfg: &str, tl: &ooo_core::trace::Timeline| {
        let s = tl.summarize();
        let horizon = s.horizon_ns.max(1) as f64;
        for l in &s.lanes {
            lines.push(format!(
                "{:<34} {:<10} {:>10.1} {:>6.1}% {:>6.1}%",
                cfg,
                l.lane,
                l.busy_ns as f64 / 1e6,
                l.stall_ns as f64 / horizon * 100.0,
                l.utilization * 100.0
            ));
        }
        for c in &s.counters {
            if let Some(f) = c.mean_fraction {
                lines.push(format!(
                    "{:<34} {:<10} {:>10} {:>7} {:>6.1}%  (mean occupancy)",
                    cfg,
                    c.counter,
                    "",
                    "",
                    f * 100.0
                ));
            }
        }
    };
    let r = single::run(&zoo::resnet(50), 64, &gpu, Engine::OooXla).expect("single");
    add("ResNet-50 b64 OOO-XLA", &r.trace.to_timeline("single"));
    let (_, tl) = datapar::run_fault_injected(
        &zoo::resnet(50),
        128,
        &gpu,
        &ClusterTopology::pub_a(),
        16,
        CommSystem::OooBytePS,
        &datapar::FaultEnv::none(),
        None,
    )
    .expect("datapar");
    add("ResNet-50 b128 OOO-BytePS x16", &tl);
    for strategy in [Strategy::GPipe, Strategy::OooPipe2] {
        let r = cpipe::run(
            &zoo::bert(24, 128),
            96,
            4,
            &gpu,
            &LinkSpec::nvlink(),
            4,
            strategy,
            1,
            2,
        )
        .expect("pipeline");
        let tl = r.result.to_timeline("pipeline");
        add(&format!("BERT-24 b96 {strategy:?} 4dev"), &tl);
    }
    FigureReport {
        id: "tracemetrics",
        title: "Trace-derived occupancy, stall, and utilization metrics",
        paper: "timelines explain the gains: stalls shrink where OOO scheduling applies",
        lines,
    }
}

/// Chaos campaign: iteration-time inflation of each recovery policy vs
/// the no-recovery baseline under the identical seeded fault trace.
pub fn chaosrecovery() -> FigureReport {
    let report = ooo_faults::run_campaign(42, 5).expect("chaos campaign");
    let mut lines = vec![format!(
        "{:<20} {:<36} {:<20} {:>8} {:>10} {:>6}",
        "fault", "magnitudes", "policy", "no-rec", "recovered", "ok"
    )];
    for o in &report.outcomes {
        lines.push(format!(
            "{:<20} {:<36} {:<20} {:>7.2}x {:>9.2}x {:>6}",
            o.family,
            o.detail,
            o.policy,
            o.no_recovery_inflation(),
            o.recovered_inflation(),
            if o.invariants_ok() { "pass" } else { "FAIL" },
        ));
    }
    lines.push(format!(
        "baseline iteration {:.1} ms (k = {}), seed {}",
        report.baseline_iter_ns as f64 / 1e6,
        report.stale_k,
        report.seed,
    ));
    FigureReport {
        id: "chaosrecovery",
        title: "Fault injection: recovery policies vs no recovery",
        paper: "robustness extension: every matched policy strictly beats no-recovery",
        lines,
    }
}

/// Static analysis of every pipeline strategy's op-level schedule: the
/// `ooo-advise` predicted makespan, gap, bubble and advisories. The
/// "simulated" column is `list_scheduling::simulate`'s timeline of the
/// same schedule, which is the same list-evaluation pass, so the two
/// columns agree by construction.
pub fn perfadvice() -> FigureReport {
    use ooo_core::cost::UnitCost;
    use ooo_core::list_scheduling::simulate;
    use ooo_core::pipeline::op_level_schedule;
    use ooo_verify::perf::advise_pipeline;

    let (layers, devices, group) = (8, 2, 1);
    let mut lines = vec![format!(
        "{:<22} {:>9} {:>9} {:>6} {:>8}  advisories",
        "strategy", "predicted", "simulated", "gap", "bubble"
    )];
    for (name, strategy) in [
        ("model-parallel", Strategy::ModelParallel),
        ("gpipe", Strategy::GPipe),
        ("ooo-pipe1", Strategy::OooPipe1),
        ("ooo-pipe2", Strategy::OooPipe2),
    ] {
        let (graph, schedule) = op_level_schedule(layers, devices, strategy, group);
        let simulated = simulate(&graph, &schedule, &UnitCost)
            .expect("op-level schedule simulates")
            .makespan();
        let report = advise_pipeline(layers, devices, strategy, group).expect("advisor runs");
        let bubble = report.prediction.idle_fraction(|n| n.starts_with("gpu"));
        let codes: Vec<&str> = report
            .advice
            .iter()
            .map(|a| a.diagnostic.rule.code())
            .collect();
        lines.push(format!(
            "{:<22} {:>9} {:>9} {:>6} {:>7.1}%  {}",
            name,
            report.predicted_makespan,
            simulated,
            report
                .optimality_gap
                .map_or_else(|| "n/a".to_string(), |g| format!("{g:.3}")),
            bubble * 100.0,
            if codes.is_empty() {
                "none".to_string()
            } else {
                codes.join(" ")
            },
        ));
    }
    FigureReport {
        id: "perfadvice",
        title: "Static makespan prediction vs simulation (8 layers, 2 devices)",
        paper: "analyzer extension: prediction is exact; only non-OOO strategies draw advisories",
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_time_figures_match_paper_exactly() {
        let f5 = fig5();
        let text = f5.render();
        assert!(text.contains("makespan 23 units"));
        assert!(text.contains("makespan 19 units"));
        assert!(text.contains("makespan 16 units"));
    }

    #[test]
    fn fig4_shows_ordering() {
        let f = fig4();
        assert!(f.lines.iter().any(|l| l.contains("gain of (c)")));
    }

    #[test]
    fn table_reports_render() {
        assert!(table1().render().contains("BERT-48"));
        assert!(table2().render().contains("Pub-A"));
    }
}
