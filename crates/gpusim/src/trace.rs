//! Simulation traces and derived utilization metrics.

use crate::SimTime;
use ooo_core::trace::{Counter, Span, Timeline, CAT_STALL};

/// One executed kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRecord {
    /// Kernel name.
    pub name: String,
    /// Stream index the kernel ran on.
    pub stream: usize,
    /// Thread blocks in the grid.
    pub blocks: u32,
    /// Block waves the kernel ran: the number of instants at which some
    /// of its blocks were granted slots together. A kernel alone on the
    /// device runs `⌈blocks / slots⌉`; one sharing slots with another
    /// stream may run more, smaller waves.
    pub waves: u32,
    /// When the CPU finished issuing the kernel.
    pub issue_end: SimTime,
    /// First block launch.
    pub exec_start: SimTime,
    /// Last block completion.
    pub exec_end: SimTime,
}

impl KernelRecord {
    /// Kernel execution duration.
    pub fn exec_ns(&self) -> SimTime {
        self.exec_end - self.exec_start
    }
}

/// A completed simulation run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Kernels sorted by `(exec_start, stream)`.
    pub records: Vec<KernelRecord>,
    /// Total block slots of the simulated GPU.
    pub slots: u32,
    /// `(time, block slots in use)` samples at every instant the in-use
    /// count changed — the SM occupancy counter.
    pub occupancy: Vec<(SimTime, u32)>,
}

impl Trace {
    /// Latest kernel completion.
    pub fn makespan(&self) -> SimTime {
        self.records.iter().map(|r| r.exec_end).max().unwrap_or(0)
    }

    /// Total time some kernel of `stream` was executing.
    pub fn stream_busy(&self, stream: usize) -> SimTime {
        let mut spans: Vec<(SimTime, SimTime)> = self
            .records
            .iter()
            .filter(|r| r.stream == stream)
            .map(|r| (r.exec_start, r.exec_end))
            .collect();
        spans.sort_unstable();
        let mut busy = 0;
        let mut cur: Option<(SimTime, SimTime)> = None;
        for (s, e) in spans {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    busy += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            busy += ce - cs;
        }
        busy
    }

    /// Total idle time between consecutive kernel executions on `stream`
    /// (the kernel issue/setup gaps visible in the paper's Figure 2).
    pub fn stream_gaps(&self, stream: usize) -> SimTime {
        let mut recs: Vec<&KernelRecord> =
            self.records.iter().filter(|r| r.stream == stream).collect();
        recs.sort_by_key(|r| r.exec_start);
        recs.windows(2)
            .map(|w| w[1].exec_start.saturating_sub(w[0].exec_end))
            .sum()
    }

    /// Mean SM occupancy over the makespan: executed block-time divided by
    /// `slots * makespan`, in `[0, 1]`. Block-time is approximated from
    /// each kernel's `blocks x (exec span / waves)` — exact when all of a
    /// kernel's blocks have equal duration, which the kernel model
    /// guarantees.
    pub fn mean_occupancy(&self) -> f64 {
        let m = self.makespan();
        if m == 0 || self.slots == 0 {
            return 0.0;
        }
        let block_time: f64 = self
            .records
            .iter()
            .map(|r| {
                let waves = r.blocks.div_ceil(self.slots).max(1) as f64;
                let per_block = r.exec_ns() as f64 / waves;
                per_block * r.blocks as f64
            })
            .sum();
        (block_time / (self.slots as f64 * m as f64)).min(1.0)
    }

    /// Renders the run as a structured [`Timeline`]: one `stream{i}` lane
    /// per stream with a span per kernel (annotated with its block and
    /// wave counts), explicit [`CAT_STALL`] spans filling every idle gap
    /// on each stream, and an `sm_slots_in_use` counter carrying the SM
    /// occupancy samples with the GPU's slot count as capacity.
    pub fn to_timeline(&self, name: &str) -> Timeline {
        let mut tl = Timeline::new(name);
        let max_stream = self.records.iter().map(|r| r.stream).max();
        if let Some(max_stream) = max_stream {
            for stream in 0..=max_stream {
                let lane = tl.lane_mut(&format!("stream{stream}"));
                let mut recs: Vec<&KernelRecord> =
                    self.records.iter().filter(|r| r.stream == stream).collect();
                recs.sort_by_key(|r| r.exec_start);
                let mut prev_end: SimTime = 0;
                for r in recs {
                    if r.exec_start > prev_end {
                        lane.spans
                            .push(Span::new("stall", CAT_STALL, prev_end, r.exec_start));
                    }
                    let mut span = Span::new(r.name.clone(), "kernel", r.exec_start, r.exec_end);
                    span.args.push(("blocks".into(), r.blocks as f64));
                    span.args.push(("waves".into(), r.waves as f64));
                    span.args.push(("issue_end_ns".into(), r.issue_end as f64));
                    lane.spans.push(span);
                    prev_end = prev_end.max(r.exec_end);
                }
            }
        }
        if !self.occupancy.is_empty() {
            tl.counters.push(Counter {
                name: "sm_slots_in_use".into(),
                capacity: Some(self.slots as f64),
                samples: self.occupancy.iter().map(|&(t, v)| (t, v as f64)).collect(),
            });
        }
        tl
    }

    /// Per-kernel `(issue overhead, execution time)` pairs in execution
    /// order — the data behind the paper's Figure 1. The issue overhead
    /// of a kernel is the time the GPU sat idle on its stream waiting for
    /// the kernel to become executable.
    pub fn issue_gap_vs_exec(&self, stream: usize) -> Vec<(String, SimTime, SimTime)> {
        let mut recs: Vec<&KernelRecord> =
            self.records.iter().filter(|r| r.stream == stream).collect();
        recs.sort_by_key(|r| r.exec_start);
        let mut out = Vec::with_capacity(recs.len());
        let mut prev_end = 0;
        for r in recs {
            let gap = r.exec_start.saturating_sub(prev_end);
            out.push((r.name.clone(), gap, r.exec_ns()));
            prev_end = r.exec_end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, stream: usize, start: SimTime, end: SimTime) -> KernelRecord {
        KernelRecord {
            name: name.into(),
            stream,
            blocks: 1,
            waves: 1,
            issue_end: 0,
            exec_start: start,
            exec_end: end,
        }
    }

    #[test]
    fn makespan_and_busy() {
        let t = Trace {
            records: vec![rec("a", 0, 0, 10), rec("b", 0, 15, 25), rec("c", 1, 5, 30)],
            slots: 4,
            ..Trace::default()
        };
        assert_eq!(t.makespan(), 30);
        assert_eq!(t.stream_busy(0), 20);
        assert_eq!(t.stream_busy(1), 25);
        assert_eq!(t.stream_gaps(0), 5);
        assert_eq!(t.stream_gaps(1), 0);
    }

    #[test]
    fn overlapping_spans_merge_in_busy() {
        let t = Trace {
            records: vec![rec("a", 0, 0, 10), rec("b", 0, 5, 12)],
            slots: 1,
            ..Trace::default()
        };
        assert_eq!(t.stream_busy(0), 12);
    }

    #[test]
    fn issue_gap_series() {
        let t = Trace {
            records: vec![rec("a", 0, 2, 10), rec("b", 0, 14, 20)],
            slots: 1,
            ..Trace::default()
        };
        let s = t.issue_gap_vs_exec(0);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], ("a".into(), 2, 8));
        assert_eq!(s[1], ("b".into(), 4, 6));
    }

    #[test]
    fn occupancy_bounds() {
        let mut r = rec("a", 0, 0, 10);
        r.blocks = 4;
        let t = Trace {
            records: vec![r],
            slots: 4,
            ..Trace::default()
        };
        assert!((t.mean_occupancy() - 1.0).abs() < 1e-9);
        let empty = Trace::default();
        assert_eq!(empty.mean_occupancy(), 0.0);
    }
}

/// Serializes the trace into the Chrome Trace Event format (the JSON
/// array flavour), loadable in `chrome://tracing` or Perfetto — each
/// stream becomes a track, each kernel a complete event. Written by hand
/// (the format is four fields per event) to avoid a JSON dependency.
pub fn to_chrome_trace(trace: &Trace) -> String {
    let mut out = String::from("[\n");
    for (i, r) in trace.records.iter().enumerate() {
        let comma = if i + 1 == trace.records.len() {
            ""
        } else {
            ","
        };
        // Times in the chrome format are microseconds (floats allowed).
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"cat\": \"kernel\", \"ph\": \"X\", \"ts\": {:.3}, \
             \"dur\": {:.3}, \"pid\": 0, \"tid\": {}, \"args\": {{\"blocks\": {}, \"issue_end_us\": {:.3}}}}}{comma}\n",
            r.name.replace('"', "'"),
            r.exec_start as f64 / 1e3,
            r.exec_ns() as f64 / 1e3,
            r.stream,
            r.blocks,
            r.issue_end as f64 / 1e3,
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod chrome_tests {
    use super::*;

    #[test]
    fn chrome_trace_is_wellformed() {
        let t = Trace {
            records: vec![KernelRecord {
                name: "conv\"x\"".into(),
                stream: 1,
                blocks: 7,
                waves: 1,
                issue_end: 500,
                exec_start: 1_000,
                exec_end: 3_000,
            }],
            slots: 4,
            ..Trace::default()
        };
        let json = to_chrome_trace(&t);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"tid\": 1"));
        assert!(json.contains("\"dur\": 2.000"));
        // Quotes in kernel names are sanitized.
        assert!(!json.contains("conv\"x\""));
        assert!(json.contains("conv'x'"));
    }

    #[test]
    fn empty_trace_serializes() {
        assert_eq!(to_chrome_trace(&Trace::default()), "[\n]");
    }
}
