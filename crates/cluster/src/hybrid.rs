//! Combined scheduling across parallelism dimensions (the paper's
//! Section 6).
//!
//! A first-order model of hybrid data+pipeline training: `replicas`
//! pipeline groups train data-parallel; after each pipeline iteration the
//! per-layer weight gradients are synchronized across replicas over each
//! node's NIC. Reverse first-k scheduling decides the *priority order* of
//! those synchronizations, and gradient fast-forwarding shapes the
//! pipeline itself — the combination the paper sketches and leaves the
//! optimal split of as future work.

use crate::pipeline::run as run_pipeline;
use crate::{Result, SimTime};
use ooo_core::pipeline::{Strategy, TaskKind};
use ooo_core::trace::Timeline;
use ooo_models::{GpuProfile, ModelSpec};
use ooo_netsim::commsim::{
    intervals_to_lane, simulate_queue_recorded, total_finish, CommRequest, Policy,
};
use ooo_netsim::link::LinkSpec;

/// Result of a hybrid run.
#[derive(Debug, Clone)]
pub struct HybridReport {
    /// Steady-state iteration time including exposed synchronization.
    pub iter_ns: SimTime,
    /// Global throughput (samples/s across all replicas).
    pub throughput: f64,
    /// The split point used.
    pub k: usize,
}

/// Runs hybrid data+pipeline training with reverse-first-k applied to the
/// first `k` layers' synchronizations.
///
/// # Errors
///
/// Propagates pipeline-simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn run_combined(
    model: &ModelSpec,
    batch: usize,
    micro_batches: usize,
    gpu: &GpuProfile,
    intra_link: &LinkSpec,
    sync_link: &LinkSpec,
    devices: usize,
    replicas: usize,
    k: usize,
    iterations: usize,
) -> Result<HybridReport> {
    run_combined_inner(
        model,
        batch,
        micro_batches,
        gpu,
        intra_link,
        sync_link,
        devices,
        replicas,
        k,
        iterations,
        false,
    )
    .map(|(r, _)| r)
}

/// Like [`run_combined`], additionally returning the traced [`Timeline`]:
/// the pipeline's per-device lanes (with explicit bubble stalls) plus a
/// `sync` lane showing the cross-replica gradient synchronizations of the
/// final simulated iteration, aligned to that iteration's start.
///
/// # Errors
///
/// Propagates pipeline-simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn run_combined_traced(
    model: &ModelSpec,
    batch: usize,
    micro_batches: usize,
    gpu: &GpuProfile,
    intra_link: &LinkSpec,
    sync_link: &LinkSpec,
    devices: usize,
    replicas: usize,
    k: usize,
    iterations: usize,
) -> Result<(HybridReport, Timeline)> {
    let (report, timeline) = run_combined_inner(
        model,
        batch,
        micro_batches,
        gpu,
        intra_link,
        sync_link,
        devices,
        replicas,
        k,
        iterations,
        true,
    )?;
    Ok((report, timeline.expect("traced run returns a timeline")))
}

#[allow(clippy::too_many_arguments)]
fn run_combined_inner(
    model: &ModelSpec,
    batch: usize,
    micro_batches: usize,
    gpu: &GpuProfile,
    intra_link: &LinkSpec,
    sync_link: &LinkSpec,
    devices: usize,
    replicas: usize,
    k: usize,
    iterations: usize,
    traced: bool,
) -> Result<(HybridReport, Option<Timeline>)> {
    let strategy = Strategy::OooPipe2;
    // Debug builds re-check the Section 6 combination implied by this
    // split: reverse first-k over layers 1..=k, fast-forwarding for the
    // rest, against the data-parallel dependency graph whose S[dW] edges
    // model the cross-replica synchronizations prioritized below.
    crate::checks::order_lazy(
        || {
            let l = model.num_layers();
            let graph = ooo_core::graph::TrainGraph::data_parallel(l);
            let order = ooo_core::combined::combined_backward_order(&graph, k.min(l))
                .expect("k clamped to the layer count");
            (graph, order)
        },
        false,
        "combined reverse first-k + fast-forwarding order",
    );
    crate::checks::advise_lazy(
        || {
            let l = model.num_layers();
            let graph = ooo_core::graph::TrainGraph::data_parallel(l);
            let order = ooo_core::combined::combined_backward_order(&graph, k.min(l))
                .expect("k clamped to the layer count");
            (graph, ooo_core::Schedule::single_lane("gpu", order))
        },
        "combined reverse first-k + fast-forwarding order",
    );
    let report = run_pipeline(
        model,
        batch,
        micro_batches,
        gpu,
        intra_link,
        devices,
        strategy,
        1,
        iterations,
    )?;
    let iter = report.iter_ns;
    let mut timeline = if traced {
        Some(
            report
                .result
                .to_timeline(&format!("hybrid/{devices}pipe x{replicas}")),
        )
    } else {
        None
    };
    if replicas <= 1 {
        // No data-parallel dimension: pure pipeline.
        return Ok((
            HybridReport {
                iter_ns: iter,
                throughput: batch as f64 * 1e9 / iter.max(1) as f64,
                k,
            },
            timeline,
        ));
    }

    // Gradient synchronization across replicas: one request per layer,
    // ready when the layer's last dW of the final simulated iteration
    // completed, prioritized so that the first k layers go out first
    // (reverse first-k), the rest by completion order.
    let last_iter = iterations.saturating_sub(1);
    let mut ready = vec![0u64; model.num_layers() + 1];
    let mut iter_start = SimTime::MAX;
    for e in &report.result.events {
        if e.task.iter == last_iter {
            iter_start = iter_start.min(e.start);
            if e.task.kind == TaskKind::WeightGrad && e.task.layer <= model.num_layers() {
                ready[e.task.layer] = ready[e.task.layer].max(e.end);
            }
        }
    }
    let iter_start = if iter_start == SimTime::MAX {
        0
    } else {
        iter_start
    };
    let wire = |bytes: u64| {
        let n = replicas.max(1) as f64;
        (2.0 * (n - 1.0) / n * bytes as f64) as u64
    };
    let requests: Vec<CommRequest> = (1..=model.num_layers())
        .map(|i| CommRequest {
            id: i,
            bytes: if replicas > 1 {
                wire(model.layers[i - 1].param_bytes)
            } else {
                0
            },
            ready_ns: ready[i].saturating_sub(iter_start),
            priority: if i <= k { i as i64 } else { 1_000 + i as i64 },
        })
        .collect();
    let (completions, intervals) =
        simulate_queue_recorded(sync_link, 512 * 1024, Policy::Priority, &requests);
    if let Some(tl) = &mut timeline {
        // The queue runs in iteration-relative time; shift its intervals
        // to the final iteration's start so the sync lane lines up with
        // the pipeline lanes.
        let shifted: Vec<_> = intervals
            .iter()
            .map(|iv| ooo_netsim::commsim::ServiceInterval {
                start_ns: iv.start_ns + iter_start,
                end_ns: iv.end_ns + iter_start,
                ..*iv
            })
            .collect();
        tl.lanes
            .push(intervals_to_lane("sync", &shifted, |i| format!("S[dW{i}]")));
    }
    let sync_end = total_finish(&completions);
    // Exposed synchronization: whatever finishes after the pipeline's own
    // iteration time delays the next iteration.
    let iter_ns = iter.max(sync_end);
    Ok((
        HybridReport {
            iter_ns,
            throughput: (batch * replicas) as f64 * 1e9 / iter_ns.max(1) as f64,
            k,
        },
        timeline,
    ))
}

/// Searches the split `k` with the concave heuristic and returns the best
/// report.
///
/// # Errors
///
/// Propagates pipeline-simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn run_combined_best_k(
    model: &ModelSpec,
    batch: usize,
    micro_batches: usize,
    gpu: &GpuProfile,
    intra_link: &LinkSpec,
    sync_link: &LinkSpec,
    devices: usize,
    replicas: usize,
    iterations: usize,
) -> Result<HybridReport> {
    let l = model.num_layers();
    let k = ooo_core::combined::choose_split_k(l, |k| {
        run_combined(
            model,
            batch,
            micro_batches,
            gpu,
            intra_link,
            sync_link,
            devices,
            replicas,
            k,
            iterations,
        )
        .map(|r| r.throughput)
        .unwrap_or(f64::NEG_INFINITY)
    });
    run_combined(
        model,
        batch,
        micro_batches,
        gpu,
        intra_link,
        sync_link,
        devices,
        replicas,
        k,
        iterations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_models::zoo::bert;

    #[test]
    fn single_replica_equals_pure_pipeline() {
        let m = bert(12, 128);
        let gpu = GpuProfile::v100();
        let nv = LinkSpec::nvlink();
        let eth = LinkSpec::ethernet_10g();
        let hybrid = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 1, 0, 4).unwrap();
        let pure = run_pipeline(&m, 96, 4, &gpu, &nv, 4, Strategy::OooPipe2, 1, 4).unwrap();
        assert_eq!(hybrid.iter_ns, pure.iter_ns);
    }

    #[test]
    fn replication_adds_sync_cost_but_scales_throughput() {
        let m = bert(12, 128);
        let gpu = GpuProfile::v100();
        let nv = LinkSpec::nvlink();
        let eth = LinkSpec::ethernet_25g();
        let one = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 1, 0, 4).unwrap();
        let four = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 4, 0, 4).unwrap();
        assert!(four.iter_ns >= one.iter_ns);
        assert!(four.throughput > one.throughput);
    }

    #[test]
    fn traced_hybrid_aligns_sync_with_pipeline_lanes() {
        let m = bert(12, 128);
        let gpu = GpuProfile::v100();
        let nv = LinkSpec::nvlink();
        let eth = LinkSpec::ethernet_10g();
        let (r, tl) = run_combined_traced(&m, 96, 4, &gpu, &nv, &eth, 4, 4, 2, 4).unwrap();
        tl.validate().unwrap();
        let plain = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 4, 2, 4).unwrap();
        assert_eq!(r.iter_ns, plain.iter_ns);
        let summary = tl.summarize();
        assert!(summary.lane("gpu0").is_some(), "pipeline lanes missing");
        assert!(summary.lane("sync").unwrap().busy_ns > 0, "sync lane idle");
    }

    #[test]
    fn best_k_no_worse_than_k_zero() {
        let m = bert(12, 128);
        let gpu = GpuProfile::v100();
        let nv = LinkSpec::nvlink();
        let eth = LinkSpec::ethernet_10g();
        let base = run_combined(&m, 96, 4, &gpu, &nv, &eth, 4, 4, 0, 4).unwrap();
        let best = run_combined_best_k(&m, 96, 4, &gpu, &nv, &eth, 4, 4, 4).unwrap();
        assert!(best.throughput >= base.throughput * 0.999);
    }
}
