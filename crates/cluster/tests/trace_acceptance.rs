//! Acceptance tests of the end-to-end tracing path: single-GPU ResNet-50
//! through the simulator, Chrome-JSON export, re-import, and the
//! summarize metrics — which must agree exactly with totals recomputed
//! from the raw spans.

use ooo_cluster::single::{run, Engine};
use ooo_core::trace::{counter_time_weighted_mean, Timeline, CAT_STALL};
use ooo_models::zoo::resnet;
use ooo_models::GpuProfile;

#[test]
fn resnet50_summarize_agrees_with_raw_spans_across_export() {
    let report = run(&resnet(50), 64, &GpuProfile::v100(), Engine::OooXla).expect("simulation");
    let timeline = report.trace.to_timeline("single/OOO-XLA/ResNet-50");
    timeline.validate().expect("well-formed timeline");

    // Round-trip through the on-disk format the `ooo-trace` CLI emits.
    let json = timeline.to_chrome_json();
    let back = Timeline::from_chrome_json(&json).expect("re-import");
    assert_eq!(timeline, back, "export is not lossless");

    // The summary must agree with totals recomputed from raw spans.
    let summary = back.summarize();
    assert_eq!(summary.horizon_ns, timeline.horizon_ns());
    for lane in &back.lanes {
        let busy: u64 = lane
            .spans
            .iter()
            .filter(|s| s.cat != CAT_STALL)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let stall: u64 = lane
            .spans
            .iter()
            .filter(|s| s.cat == CAT_STALL)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let ls = summary.lane(&lane.name).expect("lane summarized");
        assert_eq!(ls.busy_ns, busy, "lane {} busy", lane.name);
        assert_eq!(ls.stall_ns, stall, "lane {} stall", lane.name);
        assert_eq!(ls.span_count, lane.spans.len());
        let util = busy as f64 / summary.horizon_ns as f64;
        assert!(
            (ls.utilization - util).abs() < 1e-12,
            "lane {} utilization",
            lane.name
        );
    }
    for c in &back.counters {
        let cs = summary.counter(&c.name).expect("counter summarized");
        let mean = counter_time_weighted_mean(c, summary.horizon_ns);
        assert!((cs.mean - mean).abs() < 1e-9, "counter {} mean", c.name);
    }

    // The trace covers the simulated iterations and both streams worked.
    assert!(summary.horizon_ns >= report.iter_ns);
    assert!(summary.lane("stream0").unwrap().busy_ns > 0);
    assert!(summary.lane("stream1").unwrap().busy_ns > 0);
}

#[test]
fn exported_json_has_the_chrome_trace_shape() {
    let report = run(&resnet(50), 32, &GpuProfile::v100(), Engine::Xla).expect("simulation");
    let timeline = report.trace.to_timeline("single/XLA/ResNet-50");
    let json = timeline.to_chrome_json();
    // Perfetto/chrome://tracing requirements: a traceEvents array of
    // objects each carrying a phase, and complete events with ts+dur.
    let v = ooo_core::json::Value::parse(&json).expect("self-parse");
    let events = v
        .get("traceEvents")
        .and_then(ooo_core::json::Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(ooo_core::json::Value::as_str)
            .expect("event phase");
        match ph {
            "X" => {
                assert!(ev
                    .get("ts")
                    .and_then(ooo_core::json::Value::as_f64)
                    .is_some());
                assert!(ev
                    .get("dur")
                    .and_then(ooo_core::json::Value::as_f64)
                    .is_some());
                assert!(ev
                    .get("name")
                    .and_then(ooo_core::json::Value::as_str)
                    .is_some());
            }
            "C" => {
                assert!(ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(ooo_core::json::Value::as_f64)
                    .is_some());
            }
            "M" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
}
