//! Static performance analysis: the advisory `OP`-series lints.
//!
//! Where the safety analyzer ([`crate::Verifier`]) proves a schedule
//! *correct*, the [`PerfAdvisor`] judges it *fast*: it predicts the
//! schedule's makespan with [`crate::predict`], reports the optimality
//! gap against [`ooo_core::bounds`], and emits advisory diagnostics
//! (`OP101`–`OP501`), each carrying a concrete [`Suggestion`] where an
//! applicable fix exists.
//!
//! Every op-movement advisory is *mutation-validated before it is
//! emitted*: the advisor applies the suggestion to a copy of the
//! schedule, re-predicts, and re-verifies — an `OP101`/`OP201` finding is
//! only reported when the fixed schedule is both `ooo-verify`-clean and
//! strictly faster under the exact predictor (hence, by the predictor's
//! exactness contract, strictly faster under the simulator too).

use crate::predict::{datapar_schedule, predict_makespan, Prediction};
use crate::{Diagnostic, Report, RuleId, Verifier, VerifyConfig};
use ooo_core::cost::{CostModel, UnitCost};
use ooo_core::datapar::CommPolicy;
use ooo_core::memory::{memory_profile, Buffer};
use ooo_core::pipeline::{op_level_schedule, Strategy};
use ooo_core::reverse_k::reverse_first_k;
use ooo_core::schedule::Schedule;
use ooo_core::{bounds, Error, Op, SimTime, TrainGraph};
use std::collections::HashSet;

/// A concrete, machine-applicable fix attached to an advisory finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Suggestion {
    /// Move `op` later within its lane, to slot `to_index` (index after
    /// removal).
    DeferOp {
        /// Lane holding the op.
        lane: String,
        /// The op to defer.
        op: Op,
        /// Insertion index within the lane after the op is removed.
        to_index: usize,
    },
    /// Move `op` from lane `from` to slot `index` of lane `to`
    /// (creating `to` when it does not exist).
    MoveToLane {
        /// The op to move.
        op: Op,
        /// Source lane name.
        from: String,
        /// Destination lane name.
        to: String,
        /// Insertion index in the destination lane.
        index: usize,
    },
    /// Re-run reverse first-k scheduling with depth `k`.
    SetK {
        /// The concave-model-optimal depth.
        k: usize,
    },
    /// Switch the pipeline strategy (not applicable to a fixed schedule;
    /// rebuild via [`ooo_core::pipeline::op_level_schedule`]).
    AdoptStrategy {
        /// Name of the recommended strategy.
        strategy: &'static str,
    },
}

impl Suggestion {
    /// Applies an op-movement suggestion to a copy of `schedule`.
    /// Returns `None` for suggestions that rebuild the schedule instead
    /// of editing it ([`Suggestion::SetK`], [`Suggestion::AdoptStrategy`])
    /// or when the schedule does not match the suggestion.
    pub fn apply(&self, schedule: &Schedule) -> Option<Schedule> {
        match self {
            Suggestion::DeferOp { lane, op, to_index } => {
                let mut s = schedule.clone();
                let l = s.lanes.iter_mut().find(|l| l.name == *lane)?;
                let p = l.ops.iter().position(|o| o == op)?;
                l.ops.remove(p);
                if *to_index > l.ops.len() {
                    return None;
                }
                l.ops.insert(*to_index, *op);
                Some(s)
            }
            Suggestion::MoveToLane {
                op,
                from,
                to,
                index,
            } => {
                let mut s = schedule.clone();
                let lf = s.lanes.iter_mut().find(|l| l.name == *from)?;
                let p = lf.ops.iter().position(|o| o == op)?;
                lf.ops.remove(p);
                if let Some(lt) = s.lanes.iter_mut().find(|l| l.name == *to) {
                    if *index > lt.ops.len() {
                        return None;
                    }
                    lt.ops.insert(*index, *op);
                } else {
                    s.add_lane(to, vec![*op]);
                }
                Some(s)
            }
            Suggestion::SetK { .. } | Suggestion::AdoptStrategy { .. } => None,
        }
    }

    /// One-line human/JSON rendering.
    pub fn describe(&self) -> String {
        match self {
            Suggestion::DeferOp { lane, op, to_index } => {
                format!("defer {op} to slot {to_index} of lane {lane}")
            }
            Suggestion::MoveToLane {
                op,
                from,
                to,
                index,
            } => {
                format!("move {op} from lane {from} to slot {index} of lane {to}")
            }
            Suggestion::SetK { k } => format!("set reverse first-k depth k = {k}"),
            Suggestion::AdoptStrategy { strategy } => {
                format!("adopt {strategy} (gradient fast-forwarding + modulo allocation)")
            }
        }
    }
}

/// One advisory finding with its optional fix.
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// The finding (an `OP`-series rule at advice severity).
    pub diagnostic: Diagnostic,
    /// A machine-applicable fix, when one exists.
    pub suggestion: Option<Suggestion>,
}

/// The outcome of one performance analysis.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Statically predicted makespan of the analyzed schedule.
    pub predicted_makespan: SimTime,
    /// Combined lower bound for the inferred lane counts.
    pub lower_bound: SimTime,
    /// Certified lower bound over the *scheduled* op subset
    /// ([`bounds::schedule_lower_bound`]): valid for partial schedules
    /// too, and equal to [`PerfReport::lower_bound`] when the schedule
    /// is complete.
    pub scheduled_lower_bound: SimTime,
    /// `true` when the predicted makespan meets
    /// [`PerfReport::scheduled_lower_bound`] exactly: the schedule is
    /// provably makespan-optimal for its op set and lane counts, so the
    /// `OP101`/`OP201`/`OP301` mutation scans are skipped — no movement
    /// can be strictly faster than a certified bound.
    pub proven_optimal: bool,
    /// Predicted makespan over the lower bound; `None` for partial
    /// schedules (the bound covers the whole graph's work).
    pub optimality_gap: Option<f64>,
    /// The full per-op prediction (for bubble fractions, Gantt data).
    pub prediction: Prediction,
    /// Advisory findings, in rule order then schedule order.
    pub advice: Vec<Advice>,
}

impl PerfReport {
    /// `true` when at least one advisory fired.
    pub fn has_advice(&self) -> bool {
        !self.advice.is_empty()
    }

    /// The findings as a safety-style [`Report`] (for the shared JSON
    /// diagnostics format).
    pub fn to_report(&self) -> Report {
        Report {
            diagnostics: self.advice.iter().map(|a| a.diagnostic.clone()).collect(),
        }
    }

    /// The advice entries of one rule.
    pub fn by_rule(&self, rule: RuleId) -> Vec<&Advice> {
        self.advice
            .iter()
            .filter(|a| a.diagnostic.rule == rule)
            .collect()
    }
}

/// The static performance analyzer. Borrows the dependency graph; one
/// instance can analyze any number of schedules for that graph.
#[derive(Debug)]
pub struct PerfAdvisor<'g, C = UnitCost> {
    graph: &'g TrainGraph,
    cost: C,
}

impl<'g> PerfAdvisor<'g, UnitCost> {
    /// An advisor with unit costs.
    pub fn new(graph: &'g TrainGraph) -> Self {
        PerfAdvisor {
            graph,
            cost: UnitCost,
        }
    }
}

impl<'g, C: CostModel> PerfAdvisor<'g, C> {
    /// Replaces the cost model.
    pub fn with_cost<D: CostModel>(self, cost: D) -> PerfAdvisor<'g, D> {
        PerfAdvisor {
            graph: self.graph,
            cost,
        }
    }

    /// Analyzes a multi-lane schedule: predicted makespan, optimality
    /// gap, and the `OP101`/`OP201`/`OP501` advisories.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors (malformed or deadlocked schedules).
    pub fn analyze(&self, schedule: &Schedule) -> Result<PerfReport, Error> {
        let prediction = predict_makespan(self.graph, schedule, &self.cost)?;
        let complete = schedule.num_ops() == self.graph.len();
        let (compute_lanes, link_lanes) = bounds::lane_counts(schedule);
        let lower = bounds::lower_bound(self.graph, &self.cost, compute_lanes, link_lanes);
        let scheduled_lower = bounds::schedule_lower_bound(self.graph, &self.cost, schedule);
        let gap = complete.then(|| {
            bounds::optimality_gap(
                self.graph,
                &self.cost,
                compute_lanes,
                link_lanes,
                prediction.makespan(),
            )
        });

        // A predicted makespan that meets the certified subset bound is
        // provably unimprovable by op movement: skip the OP101/OP201
        // mutation scans (each validated candidate would have to be
        // strictly faster than a lower bound, a contradiction). The
        // OP501 memory scan still runs — it optimizes the high-water
        // mark, not the makespan.
        let proven = prediction.makespan() == scheduled_lower;
        let mut advice = Vec::new();
        if !proven {
            self.check_deferrable_dw(schedule, &prediction, complete, &mut advice);
            self.check_barrier_stalls(schedule, &prediction, complete, &mut advice);
        }
        self.check_memory_hotspot(schedule, &mut advice);
        Ok(PerfReport {
            predicted_makespan: prediction.makespan(),
            lower_bound: lower,
            scheduled_lower_bound: scheduled_lower,
            proven_optimal: proven,
            optimality_gap: gap,
            prediction,
            advice,
        })
    }

    /// Analyzes a flat backward order the way the data-parallel engine
    /// runs it (compute lane + policy-ordered link lane), adding the
    /// `OP301` reverse first-k depth advisory when the order matches the
    /// reverse first-k shape for some `k`.
    ///
    /// # Errors
    ///
    /// Propagates validation and prediction errors.
    pub fn analyze_order(&self, backward: &[Op], policy: CommPolicy) -> Result<PerfReport, Error> {
        let schedule = datapar_schedule(self.graph, backward, &self.cost, policy)?;
        let mut report = self.analyze(&schedule)?;
        if report.proven_optimal {
            // Every reverse first-k realization schedules the same op
            // subset on the same lane structure, so none can beat the
            // certified subset bound this order already meets: the whole
            // OP301 depth sweep is provably fruitless.
            return Ok(report);
        }

        let eval = |k: usize| -> Result<SimTime, Error> {
            let order = reverse_first_k(self.graph, k, None::<(u64, &C)>)?;
            let s = datapar_schedule(self.graph, &order, &self.cost, policy)?;
            Ok(predict_makespan(self.graph, &s, &self.cost)?.makespan())
        };
        if let Some(k_cur) = self.infer_reverse_k(backward) {
            let m_cur = eval(k_cur)?;
            let mut best = (k_cur, m_cur);
            for k in 0..=self.graph.layers() {
                let m = eval(k)?;
                if m < best.1 {
                    best = (k, m);
                }
            }
            let (k_best, m_best) = best;
            if m_best < m_cur {
                report.advice.push(Advice {
                    diagnostic: Diagnostic {
                        rule: RuleId::SuboptimalReverseK,
                        ops: Vec::new(),
                        lanes: Vec::new(),
                        message: format!(
                            "reverse first-k depth k={k_cur} predicts makespan {m_cur}; the \
                             concave-model optimum k={k_best} predicts {m_best}"
                        ),
                    },
                    suggestion: Some(Suggestion::SetK { k: k_best }),
                });
            }
        }
        Ok(report)
    }

    /// The depth `k` whose reverse first-k order equals `backward`
    /// exactly, if any.
    fn infer_reverse_k(&self, backward: &[Op]) -> Option<usize> {
        (0..=self.graph.layers()).find(|&k| {
            reverse_first_k(self.graph, k, None::<(u64, &C)>).is_ok_and(|order| order == backward)
        })
    }

    /// `OP101`: a `dW` op on the predicted critical path that can legally
    /// run later. Emitted only when the deferral is strictly faster under
    /// the predictor and the mutated schedule verifies clean.
    fn check_deferrable_dw(
        &self,
        schedule: &Schedule,
        prediction: &Prediction,
        complete: bool,
        advice: &mut Vec<Advice>,
    ) {
        let critical: HashSet<Op> = prediction.critical_ops().into_iter().collect();
        let base = prediction.makespan();
        for lane in &schedule.lanes {
            for (p, &op) in lane.ops.iter().enumerate() {
                if !matches!(op, Op::WeightGrad(_)) || !critical.contains(&op) {
                    continue;
                }
                let Ok(dependents) = self.graph.dependents(op) else {
                    continue;
                };
                // Latest legal slot on this lane: right before the op's
                // first same-lane dependent, else the lane's end.
                let to_index = lane.ops[p + 1..]
                    .iter()
                    .position(|o| dependents.contains(o))
                    .map(|rel| p + rel)
                    .unwrap_or(lane.ops.len() - 1);
                if to_index <= p {
                    continue;
                }
                let suggestion = Suggestion::DeferOp {
                    lane: lane.name.clone(),
                    op,
                    to_index,
                };
                if let Some(better) =
                    self.validated_improvement(schedule, &suggestion, base, complete)
                {
                    advice.push(Advice {
                        diagnostic: Diagnostic {
                            rule: RuleId::MissedOooOpportunity,
                            ops: vec![op],
                            lanes: vec![lane.name.clone()],
                            message: format!(
                                "{op} sits on the predicted critical path but is legally \
                                 deferrable: moving it to slot {to_index} of lane {} cuts the \
                                 predicted makespan from {base} to {better}",
                                lane.name
                            ),
                        },
                        suggestion: Some(suggestion),
                    });
                }
            }
        }
    }

    /// `OP201`: a synchronization op on a compute lane whose immediate
    /// lane successor stalls on it without depending on it. Emitted only
    /// when moving the sync to a link lane is strictly faster and clean.
    fn check_barrier_stalls(
        &self,
        schedule: &Schedule,
        prediction: &Prediction,
        complete: bool,
        advice: &mut Vec<Advice>,
    ) {
        let base = prediction.makespan();
        let link_lane = schedule
            .lanes
            .iter()
            .find(|l| !l.ops.is_empty() && l.ops.iter().all(|o| o.is_sync()))
            .map(|l| l.name.clone());
        for lane in &schedule.lanes {
            if !lane.ops.iter().any(|o| o.is_compute()) {
                continue;
            }
            for (p, &op) in lane.ops.iter().enumerate() {
                if !op.is_sync() {
                    continue;
                }
                let Some(&succ) = lane.ops.get(p + 1) else {
                    continue;
                };
                if self.graph.deps(succ).is_ok_and(|d| d.contains(&op)) {
                    continue;
                }
                // Is the sync actually the binding constraint?
                let (Some(s_end), Some(n_start)) =
                    (prediction.finish_of(op), prediction.start_of(succ))
                else {
                    continue;
                };
                if n_start != s_end || s_end == 0 {
                    continue;
                }
                let to = link_lane.clone().unwrap_or_else(|| "link".to_string());
                let index = schedule
                    .lanes
                    .iter()
                    .find(|l| l.name == to)
                    .map(|l| {
                        l.ops
                            .iter()
                            .filter(|&&o| {
                                prediction.start_of(o).unwrap_or(0)
                                    < prediction.start_of(op).unwrap_or(0)
                            })
                            .count()
                    })
                    .unwrap_or(0);
                let suggestion = Suggestion::MoveToLane {
                    op,
                    from: lane.name.clone(),
                    to: to.clone(),
                    index,
                };
                if let Some(better) =
                    self.validated_improvement(schedule, &suggestion, base, complete)
                {
                    advice.push(Advice {
                        diagnostic: Diagnostic {
                            rule: RuleId::AvoidableBarrierStall,
                            ops: vec![op, succ],
                            lanes: vec![lane.name.clone()],
                            message: format!(
                                "{op} on compute lane {} serializes {succ}, which does not \
                                 depend on it; moving it to lane {to} cuts the predicted \
                                 makespan from {base} to {better}",
                                lane.name
                            ),
                        },
                        suggestion: Some(suggestion),
                    });
                }
            }
        }
    }

    /// `OP501`: on a flat order, a `dW` executed early whose gradient
    /// buffer stays live across the memory peak. Emits the single best
    /// deferral (largest peak reduction) when one strictly shrinks the
    /// high-water mark.
    fn check_memory_hotspot(&self, schedule: &Schedule, advice: &mut Vec<Advice>) {
        if schedule.lanes.len() != 1 {
            // Multi-lane schedules run on the exact event ledger of
            // [`crate::mem`] instead of the sequential profile (which
            // would attribute the peak to a linearization the lanes never
            // guarantee). The single-lane path below stays on the
            // sequential profile for output stability.
            self.check_memory_hotspot_multilane(schedule, advice);
            return;
        }
        let order = &schedule.lanes[0].ops;
        let Ok(profile) = memory_profile(self.graph, order, &self.cost) else {
            return;
        };
        let peak = profile.peak;
        // `peak` can exceed every after-op sample (allocation happens
        // before an op's input buffers are freed); the hotspot position
        // is the first resident maximum.
        let peak_pos = profile
            .samples
            .iter()
            .enumerate()
            .max_by(|(ia, (_, a)), (ib, (_, b))| a.cmp(b).then(ib.cmp(ia)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut best: Option<(u64, usize, Op, usize, u64)> = None; // (reduction, pos, op, to_index, new_peak)
        for (p, &op) in order.iter().enumerate() {
            if !matches!(op, Op::WeightGrad(_)) || p >= peak_pos {
                continue;
            }
            let Ok(dependents) = self.graph.dependents(op) else {
                continue;
            };
            let first_dep = order[p + 1..]
                .iter()
                .position(|o| dependents.contains(o))
                .map(|rel| p + 1 + rel);
            // The gradient buffer must be live across the peak for the
            // deferral to matter.
            if first_dep.is_some_and(|q| q <= peak_pos) {
                continue;
            }
            let to_index = first_dep.map(|q| q - 1).unwrap_or(order.len() - 1);
            if to_index <= p {
                continue;
            }
            let mut mutated = order.clone();
            mutated.remove(p);
            mutated.insert(to_index, op);
            let Ok(new_profile) = memory_profile(self.graph, &mutated, &self.cost) else {
                continue;
            };
            if new_profile.peak < peak {
                let reduction = peak - new_profile.peak;
                if best.is_none_or(|(r, bp, ..)| reduction > r || (reduction == r && p < bp)) {
                    best = Some((reduction, p, op, to_index, new_profile.peak));
                }
            }
        }
        if let Some((_, _, op, to_index, new_peak)) = best {
            let lane = schedule.lanes[0].name.clone();
            let at = profile.samples.get(peak_pos).map(|&(o, _)| o);
            advice.push(Advice {
                diagnostic: Diagnostic {
                    rule: RuleId::PeakMemoryHotspot,
                    ops: at.into_iter().chain(std::iter::once(op)).collect(),
                    lanes: vec![lane.clone()],
                    message: format!(
                        "peak memory {peak} bytes{}; deferring {op} to slot {to_index} \
                         shrinks the high-water mark to {new_peak} bytes",
                        at.map(|o| format!(" occurs at {o}")).unwrap_or_default()
                    ),
                },
                suggestion: Some(Suggestion::DeferOp { lane, op, to_index }),
            });
        }
    }

    /// The multi-lane `OP501` scan, rebased on the exact static ledger of
    /// [`crate::mem`]: a `dW` whose gradient buffer is resident at the
    /// ledger peak is deferred within its lane when the move strictly
    /// lowers the ledger peak and the mutated schedule verifies clean.
    fn check_memory_hotspot_multilane(&self, schedule: &Schedule, advice: &mut Vec<Advice>) {
        let Ok(ledger) = crate::mem::ledger_of_schedule(self.graph, schedule, &self.cost) else {
            return;
        };
        let peak = ledger.peak;
        // (reduction, lane index, position, op, to_index, new peak)
        let mut best: Option<(u64, usize, usize, Op, usize, u64)> = None;
        for (li, lane) in schedule.lanes.iter().enumerate() {
            for (p, &op) in lane.ops.iter().enumerate() {
                let Op::WeightGrad(l) = op else {
                    continue;
                };
                // The gradient buffer must be resident at the peak for
                // the deferral to matter.
                if !ledger.resident_at_peak.contains(&Buffer::WeightGrad(l.0)) {
                    continue;
                }
                let Ok(dependents) = self.graph.dependents(op) else {
                    continue;
                };
                let to_index = lane.ops[p + 1..]
                    .iter()
                    .position(|o| dependents.contains(o))
                    .map(|rel| p + rel)
                    .unwrap_or(lane.ops.len() - 1);
                if to_index <= p {
                    continue;
                }
                let suggestion = Suggestion::DeferOp {
                    lane: lane.name.clone(),
                    op,
                    to_index,
                };
                let Some(mutated) = suggestion.apply(schedule) else {
                    continue;
                };
                let Ok(new_ledger) =
                    crate::mem::ledger_of_schedule(self.graph, &mutated, &self.cost)
                else {
                    continue;
                };
                if new_ledger.peak >= peak {
                    continue;
                }
                let report = Verifier::new(self.graph)
                    .with_config(VerifyConfig {
                        require_complete: false,
                        ..VerifyConfig::default()
                    })
                    .verify(&mutated);
                if !report.is_clean() {
                    continue;
                }
                let reduction = peak - new_ledger.peak;
                if best.is_none_or(|(r, bl, bp, ..)| {
                    reduction > r || (reduction == r && (li, p) < (bl, bp))
                }) {
                    best = Some((reduction, li, p, op, to_index, new_ledger.peak));
                }
            }
        }
        if let Some((_, li, _, op, to_index, new_peak)) = best {
            let lane = schedule.lanes[li].name.clone();
            advice.push(Advice {
                diagnostic: Diagnostic {
                    rule: RuleId::PeakMemoryHotspot,
                    ops: vec![op],
                    lanes: vec![lane.clone()],
                    message: format!(
                        "ledger peak {peak} bytes holds wgrad buffers live across the \
                         high-water mark; deferring {op} to slot {to_index} of lane {lane} \
                         shrinks it to {new_peak} bytes"
                    ),
                },
                suggestion: Some(Suggestion::DeferOp { lane, op, to_index }),
            });
        }
    }

    /// Applies `suggestion`, re-predicts, and re-verifies. Returns the
    /// improved predicted makespan only when the mutated schedule is
    /// strictly faster than `base` AND `ooo-verify`-clean.
    fn validated_improvement(
        &self,
        schedule: &Schedule,
        suggestion: &Suggestion,
        base: SimTime,
        complete: bool,
    ) -> Option<SimTime> {
        let mutated = suggestion.apply(schedule)?;
        let better = predict_makespan(self.graph, &mutated, &self.cost)
            .ok()?
            .makespan();
        if better >= base {
            return None;
        }
        let report = Verifier::new(self.graph)
            .with_config(VerifyConfig {
                require_complete: complete,
                ..VerifyConfig::default()
            })
            .verify(&mutated);
        report.is_clean().then_some(better)
    }
}

/// Analyzes one pipeline strategy's op-level schedule under unit costs:
/// the general advisories plus `OP401`, which compares the device lanes'
/// predicted bubble fraction against what gradient fast-forwarding with
/// modulo allocation (OOO-Pipe2) achieves on the same configuration.
///
/// # Errors
///
/// Propagates prediction errors.
pub fn advise_pipeline(
    layers: usize,
    devices: usize,
    strategy: Strategy,
    modulo_group: usize,
) -> Result<PerfReport, Error> {
    let (graph, schedule) = op_level_schedule(layers, devices, strategy, modulo_group);
    let advisor = PerfAdvisor::new(&graph);
    let mut report = advisor.analyze(&schedule)?;

    let bubble = report.prediction.idle_fraction(|n| n.starts_with("gpu"));
    let (g2, s2) = op_level_schedule(layers, devices, Strategy::OooPipe2, modulo_group);
    let p2 = predict_makespan(&g2, &s2, &UnitCost)?;
    let bound = p2.idle_fraction(|n| n.starts_with("gpu"));
    if bubble > bound + 1e-9 {
        report.advice.push(Advice {
            diagnostic: Diagnostic {
                rule: RuleId::ExcessPipelineBubble,
                ops: Vec::new(),
                lanes: Vec::new(),
                message: format!(
                    "{strategy:?} leaves a device-lane bubble fraction of {bubble:.3} \
                     (predicted makespan {}), exceeding the modulo-allocation bound of \
                     {bound:.3} (OOO-Pipe2 predicts {})",
                    report.predicted_makespan,
                    p2.makespan()
                ),
            },
            suggestion: Some(Suggestion::AdoptStrategy {
                strategy: "OooPipe2",
            }),
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_core::cost::{LayerCost, TableCost};
    use ooo_core::datapar::reverse_k_makespan;
    use ooo_core::graph::GraphConfig;
    use ooo_core::op::LayerId;

    fn codes(report: &PerfReport) -> Vec<&'static str> {
        report
            .advice
            .iter()
            .map(|a| a.diagnostic.rule.code())
            .collect()
    }

    #[test]
    fn op101_fires_on_critical_deferrable_dw_and_fix_is_faster() {
        // Backward-only 3-layer graph split over two lanes with dW_3
        // scheduled eagerly on the main lane, ahead of the output
        // gradients every other op waits for.
        let g = TrainGraph::new(GraphConfig {
            include_updates: false,
            include_forward: false,
            ..GraphConfig::single_gpu(3)
        })
        .unwrap();
        let mut s = Schedule::default();
        s.add_lane(
            "main",
            vec![
                Op::Loss,
                Op::WeightGrad(LayerId(3)),
                Op::OutputGrad(LayerId(3)),
                Op::OutputGrad(LayerId(2)),
            ],
        );
        s.add_lane(
            "sub",
            vec![Op::WeightGrad(LayerId(2)), Op::WeightGrad(LayerId(1))],
        );
        let advisor = PerfAdvisor::new(&g);
        let report = advisor.analyze(&s).unwrap();
        let hits = report.by_rule(RuleId::MissedOooOpportunity);
        assert_eq!(hits.len(), 1, "advice: {:?}", codes(&report));
        assert_eq!(hits[0].diagnostic.ops, vec![Op::WeightGrad(LayerId(3))]);
        // The attached fix must be strictly faster and verify-clean.
        let fixed = hits[0].suggestion.as_ref().unwrap().apply(&s).unwrap();
        let faster = predict_makespan(&g, &fixed, &UnitCost).unwrap().makespan();
        assert!(
            faster < report.predicted_makespan,
            "{faster} vs {}",
            report.predicted_makespan
        );
        assert!(Verifier::new(&g).verify(&fixed).is_clean());
    }

    #[test]
    fn op201_fires_on_sync_blocking_independent_compute() {
        // An expensive sync op wedged mid-backward on the compute lane,
        // stalling output gradients that do not depend on it.
        let g = TrainGraph::data_parallel(3);
        let cost = TableCost::uniform(
            3,
            LayerCost {
                sync_weight: 5,
                ..LayerCost::default()
            },
        );
        let mut main = vec![
            Op::Loss,
            Op::OutputGrad(LayerId(3)),
            Op::WeightGrad(LayerId(3)),
            Op::SyncWeightGrad(LayerId(3)),
            Op::OutputGrad(LayerId(2)),
            Op::WeightGrad(LayerId(2)),
            Op::WeightGrad(LayerId(1)),
        ];
        for i in 1..=3 {
            main.push(Op::Update(LayerId(i)));
            main.push(Op::Forward(LayerId(i)));
        }
        let mut s = Schedule::default();
        s.add_lane("gpu", main);
        s.add_lane(
            "link",
            vec![
                Op::SyncWeightGrad(LayerId(2)),
                Op::SyncWeightGrad(LayerId(1)),
            ],
        );
        let advisor = PerfAdvisor::new(&g).with_cost(cost.clone());
        let report = advisor.analyze(&s).unwrap();
        let hits = report.by_rule(RuleId::AvoidableBarrierStall);
        assert_eq!(hits.len(), 1, "advice: {:?}", codes(&report));
        assert_eq!(
            hits[0].diagnostic.ops,
            vec![Op::SyncWeightGrad(LayerId(3)), Op::OutputGrad(LayerId(2))]
        );
        let fixed = hits[0].suggestion.as_ref().unwrap().apply(&s).unwrap();
        let faster = predict_makespan(&g, &fixed, &cost).unwrap().makespan();
        assert!(faster < report.predicted_makespan);
        assert!(Verifier::new(&g).verify(&fixed).is_clean());
    }

    #[test]
    fn op301_recommends_concave_optimum_k() {
        let l = 8;
        let g = TrainGraph::data_parallel(l);
        let cost = TableCost::uniform(
            l,
            LayerCost {
                sync_weight: 3,
                ..LayerCost::default()
            },
        );
        let order = reverse_first_k(&g, 0, None::<(u64, &TableCost)>).unwrap();
        let advisor = PerfAdvisor::new(&g).with_cost(cost.clone());
        let report = advisor
            .analyze_order(&order, CommPolicy::FifoCompletion)
            .unwrap();
        let hits = report.by_rule(RuleId::SuboptimalReverseK);
        assert_eq!(hits.len(), 1, "advice: {:?}", codes(&report));
        let Some(Suggestion::SetK { k }) = hits[0].suggestion else {
            panic!("expected SetK, got {:?}", hits[0].suggestion);
        };
        assert_ne!(k, 0);
        // The recommended depth is simulator-confirmed strictly faster.
        let m0 = reverse_k_makespan(&g, 0, &cost, CommPolicy::FifoCompletion).unwrap();
        let mk = reverse_k_makespan(&g, k, &cost, CommPolicy::FifoCompletion).unwrap();
        assert!(mk < m0, "k={k}: {mk} vs {m0}");
    }

    #[test]
    fn op301_silent_when_depth_already_optimal() {
        let l = 8;
        let g = TrainGraph::data_parallel(l);
        let cost = TableCost::uniform(
            l,
            LayerCost {
                sync_weight: 3,
                ..LayerCost::default()
            },
        );
        // Find the best depth by exhaustive simulation, then analyze it.
        let best = (0..=l)
            .min_by_key(|&k| {
                (
                    reverse_k_makespan(&g, k, &cost, CommPolicy::FifoCompletion).unwrap(),
                    k,
                )
            })
            .unwrap();
        let order = reverse_first_k(&g, best, None::<(u64, &TableCost)>).unwrap();
        let advisor = PerfAdvisor::new(&g).with_cost(cost);
        let report = advisor
            .analyze_order(&order, CommPolicy::FifoCompletion)
            .unwrap();
        assert!(
            report.by_rule(RuleId::SuboptimalReverseK).is_empty(),
            "advice: {:?}",
            codes(&report)
        );
    }

    #[test]
    fn op401_flags_gpipe_but_not_pipe2() {
        let gpipe = advise_pipeline(8, 2, Strategy::GPipe, 1).unwrap();
        let hits = gpipe.by_rule(RuleId::ExcessPipelineBubble);
        assert_eq!(hits.len(), 1, "advice: {:?}", codes(&gpipe));
        assert_eq!(
            hits[0].suggestion,
            Some(Suggestion::AdoptStrategy {
                strategy: "OooPipe2"
            })
        );
        let pipe2 = advise_pipeline(8, 2, Strategy::OooPipe2, 1).unwrap();
        assert!(!pipe2.has_advice(), "advice: {:?}", codes(&pipe2));
        assert!(pipe2.optimality_gap.is_some());
    }

    #[test]
    fn op501_flags_early_dw_spanning_the_peak() {
        let g = TrainGraph::single_gpu(3);
        let mut cost = TableCost::uniform(3, LayerCost::default());
        for i in 1..=3 {
            cost.layer_mut(LayerId(i)).weight_bytes = 10;
        }
        let mut order = vec![
            Op::Loss,
            Op::OutputGrad(LayerId(3)),
            Op::OutputGrad(LayerId(2)),
            Op::WeightGrad(LayerId(3)),
            Op::WeightGrad(LayerId(2)),
            Op::WeightGrad(LayerId(1)),
        ];
        for i in (1..=3).rev() {
            order.push(Op::Update(LayerId(i)));
        }
        for i in 1..=3 {
            order.push(Op::Forward(LayerId(i)));
        }
        let s = Schedule::single_lane("gpu", order.clone());
        let advisor = PerfAdvisor::new(&g).with_cost(cost.clone());
        let report = advisor.analyze(&s).unwrap();
        let hits = report.by_rule(RuleId::PeakMemoryHotspot);
        assert_eq!(hits.len(), 1, "advice: {:?}", codes(&report));
        // Applying the deferral must strictly shrink the high-water mark.
        let before = memory_profile(&g, &order, &cost).unwrap().peak;
        let fixed = hits[0].suggestion.as_ref().unwrap().apply(&s).unwrap();
        let after = memory_profile(&g, &fixed.lanes[0].ops, &cost).unwrap().peak;
        assert!(after < before, "{after} vs {before}");
    }

    #[test]
    fn op501_fires_on_multi_lane_schedules_via_the_ledger() {
        // Heavy dW4 executed right after the loss on the compute lane,
        // its consumers living on the link lane: the gradient buffer
        // spans the ledger peak. Before the ledger rebase this schedule
        // was bailed out on (multi-lane); now the deferral scan runs and
        // the suggested move strictly shrinks the ledger peak.
        let g = TrainGraph::data_parallel(4);
        let mut cost = TableCost::uniform(4, LayerCost::default());
        cost.layer_mut(LayerId(4)).weight_bytes = 20;
        let mut s = Schedule::default();
        s.add_lane(
            "gpu",
            vec![
                Op::Loss,
                Op::WeightGrad(LayerId(4)),
                Op::OutputGrad(LayerId(4)),
                Op::OutputGrad(LayerId(3)),
                Op::OutputGrad(LayerId(2)),
                Op::WeightGrad(LayerId(3)),
                Op::WeightGrad(LayerId(2)),
                Op::WeightGrad(LayerId(1)),
            ],
        );
        s.add_lane(
            "link",
            vec![
                Op::SyncWeightGrad(LayerId(4)),
                Op::SyncWeightGrad(LayerId(3)),
                Op::SyncWeightGrad(LayerId(2)),
                Op::SyncWeightGrad(LayerId(1)),
            ],
        );
        let advisor = PerfAdvisor::new(&g).with_cost(cost.clone());
        let report = advisor.analyze(&s).unwrap();
        let hits = report.by_rule(RuleId::PeakMemoryHotspot);
        assert_eq!(hits.len(), 1, "advice: {:?}", codes(&report));
        assert_eq!(hits[0].diagnostic.ops, vec![Op::WeightGrad(LayerId(4))]);
        let before = crate::mem::ledger_of_schedule(&g, &s, &cost).unwrap().peak;
        let fixed = hits[0].suggestion.as_ref().unwrap().apply(&s).unwrap();
        let after = crate::mem::ledger_of_schedule(&g, &fixed, &cost)
            .unwrap()
            .peak;
        assert!(after < before, "{after} vs {before}");
    }

    #[test]
    fn certified_bound_gates_the_mutation_scans() {
        // A single-lane conventional schedule meets the one-lane
        // resource bound exactly: the subset bound certifies it optimal
        // and the OP101/OP201 scans are skipped outright.
        let g = TrainGraph::single_gpu(6);
        let s = Schedule::single_lane("gpu", g.conventional_backprop());
        let report = PerfAdvisor::new(&g).analyze(&s).unwrap();
        assert!(report.proven_optimal);
        assert_eq!(report.scheduled_lower_bound, report.predicted_makespan);
        assert_eq!(report.scheduled_lower_bound, report.lower_bound);
        assert!(report.by_rule(RuleId::MissedOooOpportunity).is_empty());
        assert!(report.by_rule(RuleId::AvoidableBarrierStall).is_empty());
    }

    #[test]
    fn certified_bound_gates_the_op301_sweep_on_sync_free_orders() {
        // With zero sync weight the single-compute-lane realization of
        // any backward order runs back-to-back: its makespan equals the
        // resource bound, the certificate fires, and the whole OP301
        // depth sweep is provably fruitless and skipped. The realization
        // is complete, so the subset bound coincides with the
        // whole-graph bound here.
        let l = 8;
        let g = TrainGraph::data_parallel(l);
        let order = reverse_first_k(&g, 3, None::<(u64, &UnitCost)>).unwrap();
        let advisor = PerfAdvisor::new(&g);
        let report = advisor
            .analyze_order(&order, CommPolicy::PriorityByLayer)
            .unwrap();
        assert!(report.proven_optimal, "{report:?}");
        assert_eq!(report.scheduled_lower_bound, report.lower_bound);
        assert!(report.by_rule(RuleId::SuboptimalReverseK).is_empty());
    }

    #[test]
    fn proven_optimal_is_false_when_the_schedule_can_improve() {
        // The OP201 fixture is strictly improvable, so the gate must
        // stay open and the scans must still fire (guards against the
        // gate suppressing true positives).
        let g = TrainGraph::data_parallel(3);
        let cost = TableCost::uniform(
            3,
            LayerCost {
                sync_weight: 5,
                ..LayerCost::default()
            },
        );
        let mut main = vec![
            Op::Loss,
            Op::OutputGrad(LayerId(3)),
            Op::WeightGrad(LayerId(3)),
            Op::SyncWeightGrad(LayerId(3)),
            Op::OutputGrad(LayerId(2)),
            Op::WeightGrad(LayerId(2)),
            Op::WeightGrad(LayerId(1)),
        ];
        for i in 1..=3 {
            main.push(Op::Update(LayerId(i)));
            main.push(Op::Forward(LayerId(i)));
        }
        let mut s = Schedule::default();
        s.add_lane("gpu", main);
        s.add_lane(
            "link",
            vec![
                Op::SyncWeightGrad(LayerId(2)),
                Op::SyncWeightGrad(LayerId(1)),
            ],
        );
        let report = PerfAdvisor::new(&g).with_cost(cost).analyze(&s).unwrap();
        assert!(!report.proven_optimal);
        assert!(report.predicted_makespan > report.scheduled_lower_bound);
        assert_eq!(report.by_rule(RuleId::AvoidableBarrierStall).len(), 1);
    }

    #[test]
    fn gap_reported_only_for_complete_schedules() {
        let g = TrainGraph::single_gpu(4);
        let advisor = PerfAdvisor::new(&g);
        let full = Schedule::single_lane("gpu", g.conventional_backprop());
        let report = advisor.analyze(&full).unwrap();
        assert!(report.optimality_gap.is_some());
        // A single-lane conventional order meets the resource bound.
        assert!((report.optimality_gap.unwrap() - 1.0).abs() < 1e-9);
        let partial = Schedule::single_lane("gpu", vec![Op::Loss]);
        let report = advisor.analyze(&partial).unwrap();
        assert!(report.optimality_gap.is_none());
        assert_eq!(report.lower_bound, bounds::lower_bound(&g, &UnitCost, 1, 1));
    }

    #[test]
    fn suggestion_apply_edits_and_rebuild_variants_return_none() {
        let mut s = Schedule::default();
        s.add_lane(
            "a",
            vec![
                Op::Loss,
                Op::WeightGrad(LayerId(2)),
                Op::OutputGrad(LayerId(2)),
            ],
        );
        s.add_lane("b", vec![Op::WeightGrad(LayerId(1))]);
        let defer = Suggestion::DeferOp {
            lane: "a".to_string(),
            op: Op::WeightGrad(LayerId(2)),
            to_index: 2,
        };
        let moved = defer.apply(&s).unwrap();
        assert_eq!(
            moved.lanes[0].ops,
            vec![
                Op::Loss,
                Op::OutputGrad(LayerId(2)),
                Op::WeightGrad(LayerId(2))
            ]
        );
        let hop = Suggestion::MoveToLane {
            op: Op::WeightGrad(LayerId(2)),
            from: "a".to_string(),
            to: "b".to_string(),
            index: 1,
        };
        let hopped = hop.apply(&s).unwrap();
        assert_eq!(hopped.lanes[0].ops.len(), 2);
        assert_eq!(
            hopped.lanes[1].ops,
            vec![Op::WeightGrad(LayerId(1)), Op::WeightGrad(LayerId(2))]
        );
        // A new lane is created when the target does not exist yet.
        let fresh = Suggestion::MoveToLane {
            op: Op::WeightGrad(LayerId(2)),
            from: "a".to_string(),
            to: "link".to_string(),
            index: 0,
        };
        let created = fresh.apply(&s).unwrap();
        assert_eq!(created.lanes.len(), 3);
        assert_eq!(created.lanes[2].name, "link");
        assert!(Suggestion::SetK { k: 3 }.apply(&s).is_none());
        assert!(Suggestion::AdoptStrategy {
            strategy: "OooPipe2"
        }
        .apply(&s)
        .is_none());
        // Unknown op: the suggestion does not match the schedule.
        let bogus = Suggestion::DeferOp {
            lane: "a".to_string(),
            op: Op::Update(LayerId(9)),
            to_index: 0,
        };
        assert!(bogus.apply(&s).is_none());
    }
}
