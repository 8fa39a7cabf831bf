//! # ooo-verify — static schedule-safety analyzer for out-of-order backprop
//!
//! Out-of-order backprop buys its speedups by deviating from the
//! conventional execution order, which makes "is this schedule actually
//! safe to run?" a real question: a hand-tuned or search-produced
//! schedule can race on a gradient buffer, deadlock across pipeline
//! stages, blow the memory budget, or reorder an operation the technique
//! is *not* allowed to move. This crate answers that question statically,
//! lint-style: a [`Verifier`] consumes a [`TrainGraph`] and a
//! [`Schedule`] and produces a [`Report`] of structured [`Diagnostic`]s,
//! each tagged with a stable [`RuleId`] and [`Severity`].
//!
//! The crate also answers the companion question — "is this schedule
//! actually *fast*?" — statically: [`predict`] evaluates any schedule's
//! makespan by cost-model list evaluation (no discrete-event
//! simulation), and [`perf`] turns the prediction into the advisory
//! `OP`-series lints below, each carrying an applicable fix suggestion
//! where one exists.
//!
//! ## Rule catalog
//!
//! The table below is generated from [`RuleId::summary`]; a unit test
//! asserts it stays in sync with the README copy.
//!
//! | Rule | Severity | Meaning |
//! |------|----------|---------|
//! | `OV001` | error | schedule references an op outside the graph |
//! | `OV002` | error | op assigned to more than one lane/position |
//! | `OV003` | error | graph op missing from a complete schedule |
//! | `OV101` | error | op scheduled before its own dependency on one lane |
//! | `OV102` | error | cross-lane wait cycle (deadlock) |
//! | `OV201` | error | unsynchronized conflicting accesses to one buffer |
//! | `OV301` | error | peak memory exceeds the configured budget |
//! | `OV401` | warning | non-`dW`-class ops deviate from conventional order |
//! | `OP101` | advice | deferrable dW op sits on the predicted critical path |
//! | `OP201` | advice | sync op on a compute lane stalls independent work |
//! | `OP301` | advice | reverse first-k depth is off the concave-model optimum |
//! | `OP401` | advice | pipeline bubble fraction exceeds the modulo-allocation bound |
//! | `OP501` | advice | deferring a dW op would shrink the peak-memory high-water mark |
//! | `OM101` | error | op accesses a buffer outside its static residency interval |
//! | `OM201` | error | free plan double-frees or misattributes a buffer lifetime |
//! | `OM301` | error | ledger peak exceeds the budget (exact witness interval) |
//! | `OM401` | advice | buffer retained past its last use; a validated early free lowers peak |
//! | `OM501` | advice | ooo reordering inflates peak vs in-order; a validated deferral restores it |
//!
//! ## Analyses
//!
//! 1. **Happens-before** ([`hb`]): program order per lane unioned with
//!    the dependency edges between scheduled ops, answered by one vector
//!    clock per event for O(1) ordering queries.
//! 2. **Race detection** (`OV201`): conflicting accesses (same buffer,
//!    at least one write, different lanes) with no happens-before path,
//!    using the buffer model of [`access`].
//! 3. **Deadlock detection** (`OV101`/`OV102`): a cycle in the union
//!    graph means no execution can make progress; same-lane dependency
//!    inversions are reported precisely, genuine cross-lane wait cycles
//!    are reported with the full cycle.
//! 4. **Memory liveness** (`OV301`): interval-based peak estimation over
//!    the merged linearization via [`ooo_core::memory::memory_profile`],
//!    checked against a configurable budget.
//! 5. **OOO legality** (`OV401`): the paper's central claim is that only
//!    `dW_i` (and its private consumers `S[dW_i]`, `U_i`) may move
//!    relative to the conventional order; any other same-lane reordering
//!    is flagged.
//!
//! ## Example
//!
//! ```
//! use ooo_core::TrainGraph;
//! use ooo_verify::Verifier;
//!
//! let graph = TrainGraph::single_gpu(4);
//! let report = Verifier::new(&graph).verify_order(&graph.fast_forward_backprop());
//! assert!(report.is_clean());
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod hb;
pub mod mem;
pub mod perf;
pub mod predict;

use access::{accesses, AccessKind, BufferId};
use ooo_core::cost::{CostModel, UnitCost};
use ooo_core::export::DiagnosticRecord;
use ooo_core::memory::memory_profile;
use ooo_core::schedule::{merge_lanes, Schedule};
use ooo_core::{Op, TrainGraph};
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note.
    Info,
    /// Performance advisory: the schedule is safe but measurably slower
    /// (or heavier) than an available alternative.
    Advice,
    /// Suspicious but not necessarily unsafe.
    Warning,
    /// The schedule is unsafe or malformed.
    Error,
}

impl Severity {
    /// Lower-case name used in the JSON diagnostics format.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Advice => "advice",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable identifier of one analyzer rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `OV001`: an op in the schedule is not part of the graph.
    UnknownOp,
    /// `OV002`: an op appears more than once across the lanes.
    DuplicateOp,
    /// `OV003`: a graph op is absent from a schedule required to be
    /// complete.
    MissingOp,
    /// `OV101`: an op precedes one of its dependencies on the same lane.
    DependencyInversion,
    /// `OV102`: the lanes wait on each other in a cycle.
    CrossLaneDeadlock,
    /// `OV201`: two conflicting buffer accesses lack a happens-before
    /// path.
    BufferRace,
    /// `OV301`: peak memory of the merged order exceeds the budget.
    MemoryBudgetExceeded,
    /// `OV401`: non-`dW`-class ops were reordered relative to the
    /// conventional execution order.
    NonWeightGradReorder,
    /// `OP101`: a `dW` op on the predicted critical path could legally
    /// run later, shortening the makespan (missed ooo opportunity).
    MissedOooOpportunity,
    /// `OP201`: a synchronization op placed on a compute lane serializes
    /// work that does not depend on it (avoidable stall).
    AvoidableBarrierStall,
    /// `OP301`: the order's reverse first-k depth is not the optimum of
    /// the concave-makespan model.
    SuboptimalReverseK,
    /// `OP401`: the pipeline schedule's bubble fraction exceeds what
    /// gradient fast-forwarding with modulo allocation achieves.
    ExcessPipelineBubble,
    /// `OP501`: a `dW` op executed early keeps its gradient buffer live
    /// across the peak; deferring it would shrink the high-water mark.
    PeakMemoryHotspot,
    /// `OM101`: a scheduled op accesses a buffer before it is defined or
    /// after its last keeper freed it.
    UseOfFreedBuffer,
    /// `OM201`: an explicit free plan frees one buffer twice, frees a
    /// never-resident buffer, or attributes a free to an unscheduled op.
    DoubleFree,
    /// `OM301`: the exact ledger peak exceeds the memory budget; the
    /// finding carries the witness interval and the resident set.
    PeakOverBudget,
    /// `OM401`: a buffer is retained to the window end by an unscheduled
    /// consumer although freeing it after its last scheduled use is
    /// clean and strictly lowers the peak.
    RetainedPastLastUse,
    /// `OM501`: out-of-order reordering inflates the peak over the
    /// in-order baseline and a single validated `dW` deferral restores
    /// the target.
    ReorderInflatesPeak,
}

/// Every analyzer rule, in rule-code order — the single source the
/// documentation tables are generated from.
pub const RULES: &[RuleId] = &[
    RuleId::UnknownOp,
    RuleId::DuplicateOp,
    RuleId::MissingOp,
    RuleId::DependencyInversion,
    RuleId::CrossLaneDeadlock,
    RuleId::BufferRace,
    RuleId::MemoryBudgetExceeded,
    RuleId::NonWeightGradReorder,
    RuleId::MissedOooOpportunity,
    RuleId::AvoidableBarrierStall,
    RuleId::SuboptimalReverseK,
    RuleId::ExcessPipelineBubble,
    RuleId::PeakMemoryHotspot,
    RuleId::UseOfFreedBuffer,
    RuleId::DoubleFree,
    RuleId::PeakOverBudget,
    RuleId::RetainedPastLastUse,
    RuleId::ReorderInflatesPeak,
];

impl RuleId {
    /// The stable rule code (e.g. `"OV201"`).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::UnknownOp => "OV001",
            RuleId::DuplicateOp => "OV002",
            RuleId::MissingOp => "OV003",
            RuleId::DependencyInversion => "OV101",
            RuleId::CrossLaneDeadlock => "OV102",
            RuleId::BufferRace => "OV201",
            RuleId::MemoryBudgetExceeded => "OV301",
            RuleId::NonWeightGradReorder => "OV401",
            RuleId::MissedOooOpportunity => "OP101",
            RuleId::AvoidableBarrierStall => "OP201",
            RuleId::SuboptimalReverseK => "OP301",
            RuleId::ExcessPipelineBubble => "OP401",
            RuleId::PeakMemoryHotspot => "OP501",
            RuleId::UseOfFreedBuffer => "OM101",
            RuleId::DoubleFree => "OM201",
            RuleId::PeakOverBudget => "OM301",
            RuleId::RetainedPastLastUse => "OM401",
            RuleId::ReorderInflatesPeak => "OM501",
        }
    }

    /// The severity this rule reports at.
    pub fn severity(self) -> Severity {
        match self {
            RuleId::NonWeightGradReorder => Severity::Warning,
            RuleId::MissedOooOpportunity
            | RuleId::AvoidableBarrierStall
            | RuleId::SuboptimalReverseK
            | RuleId::ExcessPipelineBubble
            | RuleId::PeakMemoryHotspot
            | RuleId::RetainedPastLastUse
            | RuleId::ReorderInflatesPeak => Severity::Advice,
            _ => Severity::Error,
        }
    }

    /// One-line meaning, as shown in the documentation rule tables.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::UnknownOp => "schedule references an op outside the graph",
            RuleId::DuplicateOp => "op assigned to more than one lane/position",
            RuleId::MissingOp => "graph op missing from a complete schedule",
            RuleId::DependencyInversion => "op scheduled before its own dependency on one lane",
            RuleId::CrossLaneDeadlock => "cross-lane wait cycle (deadlock)",
            RuleId::BufferRace => "unsynchronized conflicting accesses to one buffer",
            RuleId::MemoryBudgetExceeded => "peak memory exceeds the configured budget",
            RuleId::NonWeightGradReorder => "non-`dW`-class ops deviate from conventional order",
            RuleId::MissedOooOpportunity => "deferrable dW op sits on the predicted critical path",
            RuleId::AvoidableBarrierStall => "sync op on a compute lane stalls independent work",
            RuleId::SuboptimalReverseK => "reverse first-k depth is off the concave-model optimum",
            RuleId::ExcessPipelineBubble => {
                "pipeline bubble fraction exceeds the modulo-allocation bound"
            }
            RuleId::PeakMemoryHotspot => {
                "deferring a dW op would shrink the peak-memory high-water mark"
            }
            RuleId::UseOfFreedBuffer => {
                "op accesses a buffer outside its static residency interval"
            }
            RuleId::DoubleFree => "free plan double-frees or misattributes a buffer lifetime",
            RuleId::PeakOverBudget => "ledger peak exceeds the budget (exact witness interval)",
            RuleId::RetainedPastLastUse => {
                "buffer retained past its last use; a validated early free lowers peak"
            }
            RuleId::ReorderInflatesPeak => {
                "ooo reordering inflates peak vs in-order; a validated deferral restores it"
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// Operations involved in the finding.
    pub ops: Vec<Op>,
    /// Names of the lanes involved (empty when not lane-specific).
    pub lanes: Vec<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Severity of the finding (derived from the rule).
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }

    /// Converts the finding into the machine-readable interchange record
    /// of [`ooo_core::export`].
    pub fn to_record(&self) -> DiagnosticRecord {
        DiagnosticRecord {
            rule: self.rule.code().to_string(),
            severity: self.severity().as_str().to_string(),
            ops: self.ops.clone(),
            lanes: self.lanes.clone(),
            message: self.message.clone(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.rule, self.severity(), self.message)
    }
}

/// The outcome of one verification run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in analysis order (structural, deadlock, race,
    /// memory, legality).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// `true` when no rule fired at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when at least one error-severity rule fired.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }

    /// The findings of one rule.
    pub fn by_rule(&self, rule: RuleId) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// The distinct rule codes that fired.
    pub fn rule_codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = self.diagnostics.iter().map(|d| d.rule.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Converts every finding into the interchange format, ready for
    /// [`ooo_core::export::diagnostics_to_json`].
    pub fn to_records(&self) -> Vec<DiagnosticRecord> {
        self.diagnostics.iter().map(Diagnostic::to_record).collect()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "clean: no findings");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Configuration of a verification run.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Require every graph op to be scheduled (`OV003`). Disable for
    /// partial schedules such as the backward-only orders of
    /// reverse first-k scheduling.
    pub require_complete: bool,
    /// Peak-memory budget in bytes for `OV301`; `None` disables the
    /// memory-liveness analysis.
    pub memory_budget: Option<u64>,
    /// Run the ooo-legality lint (`OV401`).
    pub check_legality: bool,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            require_complete: true,
            memory_budget: None,
            check_legality: true,
        }
    }
}

/// The analyzer. Borrows the dependency graph; one instance can verify
/// any number of schedules for that graph.
#[derive(Debug)]
pub struct Verifier<'g, C = UnitCost> {
    graph: &'g TrainGraph,
    cost: C,
    config: VerifyConfig,
}

impl<'g> Verifier<'g, UnitCost> {
    /// A verifier with default configuration and unit buffer sizes.
    pub fn new(graph: &'g TrainGraph) -> Self {
        Verifier {
            graph,
            cost: UnitCost,
            config: VerifyConfig::default(),
        }
    }
}

impl<'g, C: CostModel> Verifier<'g, C> {
    /// Replaces the configuration.
    pub fn with_config(mut self, config: VerifyConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the cost model used by the memory-liveness analysis.
    pub fn with_cost<D: CostModel>(self, cost: D) -> Verifier<'g, D> {
        Verifier {
            graph: self.graph,
            cost,
            config: self.config,
        }
    }

    /// Verifies a flat execution order (a single-lane schedule).
    pub fn verify_order(&self, order: &[Op]) -> Report {
        self.verify(&Schedule::single_lane("order", order.to_vec()))
    }

    /// Runs all analyses over `schedule` and returns the findings.
    pub fn verify(&self, schedule: &Schedule) -> Report {
        let mut diags = Vec::new();

        // --- Structural rules (OV001/OV002/OV003). A schedule that fails
        // OV001/OV002 has no well-defined event set, so the deeper
        // analyses are skipped.
        let mut seen: Vec<bool> = vec![false; self.graph.len()];
        let mut structural_broken = false;
        for lane in &schedule.lanes {
            for &op in &lane.ops {
                let Some(idx) = self.graph.op_index(op) else {
                    diags.push(Diagnostic {
                        rule: RuleId::UnknownOp,
                        ops: vec![op],
                        lanes: vec![lane.name.clone()],
                        message: format!("{op} (lane {}) is not part of the graph", lane.name),
                    });
                    structural_broken = true;
                    continue;
                };
                if std::mem::replace(&mut seen[idx], true) {
                    let lanes: Vec<String> = schedule
                        .lanes
                        .iter()
                        .filter(|l| l.ops.contains(&op))
                        .map(|l| l.name.clone())
                        .collect();
                    diags.push(Diagnostic {
                        rule: RuleId::DuplicateOp,
                        ops: vec![op],
                        message: format!(
                            "{op} is assigned more than once (lanes: {}); its output buffer \
                             would be produced twice",
                            lanes.join(", ")
                        ),
                        lanes,
                    });
                    structural_broken = true;
                }
            }
        }
        if structural_broken {
            return Report { diagnostics: diags };
        }
        if self.config.require_complete {
            let missing: Vec<Op> = self
                .graph
                .ops()
                .iter()
                .zip(&seen)
                .filter(|&(_, &s)| !s)
                .map(|(&op, _)| op)
                .collect();
            if !missing.is_empty() {
                let shown: Vec<String> = missing.iter().map(|op| op.to_string()).collect();
                diags.push(Diagnostic {
                    rule: RuleId::MissingOp,
                    ops: missing,
                    lanes: Vec::new(),
                    message: format!(
                        "schedule is missing {} graph operation(s): {}",
                        shown.len(),
                        shown.join(", ")
                    ),
                });
            }
        }

        // --- OOO legality (OV401): purely positional, so it works even
        // when the schedule deadlocks.
        if self.config.check_legality {
            self.check_legality(schedule, &mut diags);
        }

        // --- Happens-before; on a cycle, report the deadlock and stop
        // (races and memory are undefined without a feasible execution).
        let relation = match hb::build(self.graph, schedule) {
            hb::HbResult::Cycle(cycle) => {
                self.report_cycle(schedule, cycle, &mut diags);
                return Report { diagnostics: diags };
            }
            hb::HbResult::Relation(r) => r,
        };

        // --- Race detection (OV201).
        self.check_races(schedule, &relation, &mut diags);

        // --- Memory liveness (OV301).
        if let Some(budget) = self.config.memory_budget {
            self.check_memory(schedule, budget, &mut diags);
        }

        Report { diagnostics: diags }
    }

    /// Same-lane pairs of non-`dW`-class ops whose relative order deviates
    /// from conventional backprop. Cross-lane deviations of non-`dW` ops
    /// need no separate rule: the forward chain transitively depends on
    /// the whole backward chain, so any such inversion already manifests
    /// as a dependency cycle (`OV101`/`OV102`).
    ///
    /// A graph op's dense index is its position in
    /// `conventional_backprop()`, so a lane keeps the conventional order
    /// iff the indices of its non-`dW`-class ops strictly increase. One
    /// pass per lane decides that; only a lane that fails it is
    /// enumerated pairwise, to report every inverted pair.
    fn check_legality(&self, schedule: &Schedule, diags: &mut Vec<Diagnostic>) {
        let index = |op: Op| self.graph.op_index(op).expect("structurally checked");
        for lane in &schedule.lanes {
            let fixed = lane
                .ops
                .iter()
                .copied()
                .filter(|op| !op.is_weight_grad_class());
            if fixed.clone().map(index).is_sorted_by(|a, b| a < b) {
                continue;
            }
            let fixed: Vec<(Op, usize)> = fixed.map(|op| (op, index(op))).collect();
            for (i, &(a, ia)) in fixed.iter().enumerate() {
                for &(b, ib) in &fixed[i + 1..] {
                    if ia > ib {
                        diags.push(Diagnostic {
                            rule: RuleId::NonWeightGradReorder,
                            ops: vec![a, b],
                            lanes: vec![lane.name.clone()],
                            message: format!(
                                "{a} runs before {b} on lane {}, inverting their conventional \
                                 order; out-of-order backprop may only move dW-class ops \
                                 (dW/S[dW]/U)",
                                lane.name
                            ),
                        });
                    }
                }
            }
        }
    }

    /// Classifies a union-graph cycle: same-lane dependency inversions
    /// are the precise cause when they exist (`OV101`), otherwise the
    /// lanes genuinely deadlock against each other (`OV102`).
    fn report_cycle(&self, schedule: &Schedule, cycle: Vec<Op>, diags: &mut Vec<Diagnostic>) {
        // (lane, position) of every scheduled op, by graph op index.
        let mut at: Vec<Option<(usize, usize)>> = vec![None; self.graph.len()];
        for (li, lane) in schedule.lanes.iter().enumerate() {
            for (i, &op) in lane.ops.iter().enumerate() {
                at[self.graph.op_index(op).expect("structurally checked")] = Some((li, i));
            }
        }
        let mut found_inversion = false;
        for (li, lane) in schedule.lanes.iter().enumerate() {
            for (i, &op) in lane.ops.iter().enumerate() {
                let idx = self.graph.op_index(op).expect("structurally checked");
                for &d in self.graph.dep_indices(idx) {
                    if at[d].is_some_and(|(ld, j)| ld == li && j > i) {
                        let dep = self.graph.ops()[d];
                        found_inversion = true;
                        diags.push(Diagnostic {
                            rule: RuleId::DependencyInversion,
                            ops: vec![op, dep],
                            lanes: vec![lane.name.clone()],
                            message: format!(
                                "{op} is scheduled before its dependency {dep} on lane {}",
                                lane.name
                            ),
                        });
                    }
                }
            }
        }
        if !found_inversion {
            let mut lanes: Vec<String> = cycle
                .iter()
                .filter_map(|&op| schedule.lane_of(op))
                .map(|r| schedule.lanes[r.0].name.clone())
                .collect();
            lanes.sort();
            lanes.dedup();
            let chain: Vec<String> = cycle.iter().map(|op| op.to_string()).collect();
            diags.push(Diagnostic {
                rule: RuleId::CrossLaneDeadlock,
                ops: cycle,
                lanes,
                message: format!(
                    "cross-lane wait cycle: {} -> (back to start); no lane can make progress",
                    chain.join(" -> ")
                ),
            });
        }
    }

    /// Conflicting buffer accesses with no happens-before path (`OV201`).
    fn check_races(
        &self,
        schedule: &Schedule,
        relation: &hb::HbRelation,
        diags: &mut Vec<Diagnostic>,
    ) {
        let layers = self.graph.layers();
        let mut accs: Vec<(BufferId, Op, usize, AccessKind)> = Vec::new();
        for (lane_idx, lane) in schedule.lanes.iter().enumerate() {
            for &op in &lane.ops {
                for (buf, kind) in accesses(op, layers) {
                    accs.push((buf, op, lane_idx, kind));
                }
            }
        }
        // Visit the buffers in sorted order; the stable sort keeps each
        // buffer's accesses in schedule order.
        accs.sort_by_key(|&(buf, ..)| buf);
        for group in accs.chunk_by(|x, y| x.0 == y.0) {
            for (i, &(buf, a, la, ka)) in group.iter().enumerate() {
                for &(_, b, lb, kb) in &group[i + 1..] {
                    let conflicting =
                        la != lb && (ka == AccessKind::Write || kb == AccessKind::Write);
                    if conflicting && !relation.ordered(a, b) {
                        diags.push(Diagnostic {
                            rule: RuleId::BufferRace,
                            ops: vec![a, b],
                            lanes: vec![
                                schedule.lanes[la].name.clone(),
                                schedule.lanes[lb].name.clone(),
                            ],
                            message: format!(
                                "unsynchronized accesses to {buf}: {a} ({ka}, lane {}) and \
                                 {b} ({kb}, lane {}) have no happens-before path",
                                schedule.lanes[la].name, schedule.lanes[lb].name
                            ),
                        });
                    }
                }
            }
        }
    }

    /// Peak memory of the merged linearization against the budget
    /// (`OV301`).
    fn check_memory(&self, schedule: &Schedule, budget: u64, diags: &mut Vec<Diagnostic>) {
        // The union graph is acyclic here (the deadlock analysis passed),
        // so the merge over the same edge set cannot fail.
        let merged = match merge_lanes(self.graph, schedule) {
            Ok(m) => m,
            Err(_) => return,
        };
        let profile = match memory_profile(self.graph, &merged, &self.cost) {
            Ok(p) => p,
            Err(_) => return,
        };
        if profile.peak > budget {
            // The op whose sample is highest marks where the peak region
            // lies (the exact peak may occur transiently inside an op).
            let at = profile
                .samples
                .iter()
                .max_by_key(|&&(_, m)| m)
                .map(|&(op, _)| op);
            diags.push(Diagnostic {
                rule: RuleId::MemoryBudgetExceeded,
                ops: at.into_iter().collect(),
                lanes: Vec::new(),
                message: format!(
                    "peak memory {} bytes exceeds the budget of {budget} bytes \
                     (resident at backward start: {} bytes)",
                    profile.peak, profile.initial
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_core::memory::memory_profile;
    use ooo_core::op::LayerId;

    fn codes(report: &Report) -> Vec<&'static str> {
        report.rule_codes()
    }

    #[test]
    fn rule_tables_are_generated_from_summaries() {
        // One source of truth: the crate-docs table, the README table,
        // and the DESIGN §16 OM table must all carry exactly the row
        // `RuleId::summary` renders for every rule, so none drift apart.
        let lib = include_str!("lib.rs");
        let readme = include_str!("../../../README.md");
        let design = include_str!("../../../DESIGN.md");
        for &rule in RULES {
            let row = format!(
                "| `{}` | {} | {} |",
                rule.code(),
                rule.severity().as_str(),
                rule.summary()
            );
            assert!(lib.contains(&row), "crate docs missing row: {row}");
            assert!(readme.contains(&row), "README missing row: {row}");
            if rule.code().starts_with("OM") {
                assert!(design.contains(&row), "DESIGN missing row: {row}");
            }
        }
    }

    #[test]
    fn conventional_and_fast_forward_are_clean() {
        for graph in [
            TrainGraph::single_gpu(6),
            TrainGraph::data_parallel(6),
            TrainGraph::pipeline_parallel(6),
        ] {
            let v = Verifier::new(&graph);
            assert!(v.verify_order(&graph.conventional_backprop()).is_clean());
            assert!(v.verify_order(&graph.fast_forward_backprop()).is_clean());
        }
    }

    #[test]
    fn unknown_op_is_ov001() {
        let graph = TrainGraph::single_gpu(3);
        let mut order = graph.conventional_backprop();
        order.push(Op::Forward(LayerId(99)));
        let report = Verifier::new(&graph).verify_order(&order);
        assert_eq!(codes(&report), vec!["OV001"]);
        assert!(report.has_errors());
    }

    #[test]
    fn double_assigned_op_is_ov002() {
        let graph = TrainGraph::single_gpu(3);
        let mut s = Schedule::new();
        s.add_lane("main", graph.conventional_backprop());
        // dW3's buffer produced a second time on another lane.
        s.add_lane("sub", vec![Op::WeightGrad(LayerId(3))]);
        let report = Verifier::new(&graph).verify(&s);
        assert_eq!(codes(&report), vec!["OV002"]);
        let d = &report.by_rule(RuleId::DuplicateOp)[0];
        assert_eq!(d.ops, vec![Op::WeightGrad(LayerId(3))]);
        assert_eq!(d.lanes, vec!["main".to_string(), "sub".to_string()]);
    }

    #[test]
    fn missing_op_is_ov003_and_only_with_require_complete() {
        let graph = TrainGraph::single_gpu(3);
        let mut order = graph.conventional_backprop();
        let dropped = order.pop().unwrap();
        let report = Verifier::new(&graph).verify_order(&order);
        assert_eq!(codes(&report), vec!["OV003"]);
        assert_eq!(report.by_rule(RuleId::MissingOp)[0].ops, vec![dropped]);

        let partial = Verifier::new(&graph)
            .with_config(VerifyConfig {
                require_complete: false,
                ..VerifyConfig::default()
            })
            .verify_order(&order);
        assert!(partial.is_clean());
    }

    #[test]
    fn dependency_inversion_of_do_pair_is_ov101_plus_ov401() {
        let graph = TrainGraph::single_gpu(4);
        let mut order = graph.conventional_backprop();
        let p3 = order
            .iter()
            .position(|&o| o == Op::OutputGrad(LayerId(3)))
            .unwrap();
        let p2 = order
            .iter()
            .position(|&o| o == Op::OutputGrad(LayerId(2)))
            .unwrap();
        order.swap(p3, p2);
        let report = Verifier::new(&graph).verify_order(&order);
        assert_eq!(codes(&report), vec!["OV101", "OV401"]);
        let inv = &report.by_rule(RuleId::DependencyInversion)[0];
        assert_eq!(
            inv.ops,
            vec![Op::OutputGrad(LayerId(2)), Op::OutputGrad(LayerId(3))]
        );
    }

    #[test]
    fn weight_grad_class_inversion_is_ov101_without_ov401() {
        let graph = TrainGraph::single_gpu(4);
        let mut order = graph.conventional_backprop();
        let pw = order
            .iter()
            .position(|&o| o == Op::WeightGrad(LayerId(4)))
            .unwrap();
        let pu = order
            .iter()
            .position(|&o| o == Op::Update(LayerId(4)))
            .unwrap();
        order.swap(pw, pu);
        let report = Verifier::new(&graph).verify_order(&order);
        assert_eq!(codes(&report), vec!["OV101"]);
    }

    #[test]
    fn dropped_sync_op_races_on_the_gradient_buffer() {
        // Pipeline training: dO3 on gpu1 produces grad[2]; dW2 on gpu0
        // consumes it. With S[dO3] dropped from the schedule there is no
        // happens-before path between them.
        let graph = TrainGraph::pipeline_parallel(3);
        let mut s = Schedule::new();
        s.add_lane("gpu1", vec![Op::Loss, Op::OutputGrad(LayerId(3))]);
        s.add_lane("gpu0", vec![Op::WeightGrad(LayerId(2))]);
        let report = Verifier::new(&graph)
            .with_config(VerifyConfig {
                require_complete: false,
                ..VerifyConfig::default()
            })
            .verify(&s);
        assert_eq!(codes(&report), vec!["OV201"]);
        let race = &report.by_rule(RuleId::BufferRace)[0];
        assert!(race.message.contains("grad[2]"), "{}", race.message);

        // Restoring the sync op on a link lane removes the race.
        let mut fixed = Schedule::new();
        fixed.add_lane("gpu1", vec![Op::Loss, Op::OutputGrad(LayerId(3))]);
        fixed.add_lane("gpu0", vec![Op::WeightGrad(LayerId(2))]);
        fixed.add_lane("link", vec![Op::SyncOutputGrad(LayerId(3))]);
        let report = Verifier::new(&graph)
            .with_config(VerifyConfig {
                require_complete: false,
                ..VerifyConfig::default()
            })
            .verify(&fixed);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn cross_lane_wait_cycle_is_ov102() {
        // Three lanes of a 4-layer pipeline wait on each other: the
        // compute lane "a" wants dW1 (needs S[dO2]) before it produces
        // dO4, but S[dO2] transitively needs dO4.
        let graph = TrainGraph::pipeline_parallel(4);
        let mut s = Schedule::new();
        s.add_lane(
            "a",
            vec![Op::WeightGrad(LayerId(1)), Op::OutputGrad(LayerId(4))],
        );
        s.add_lane(
            "b",
            vec![
                Op::Loss,
                Op::OutputGrad(LayerId(3)),
                Op::OutputGrad(LayerId(2)),
            ],
        );
        s.add_lane(
            "c",
            vec![
                Op::SyncOutputGrad(LayerId(4)),
                Op::SyncOutputGrad(LayerId(3)),
                Op::SyncOutputGrad(LayerId(2)),
            ],
        );
        let report = Verifier::new(&graph)
            .with_config(VerifyConfig {
                require_complete: false,
                ..VerifyConfig::default()
            })
            .verify(&s);
        assert_eq!(codes(&report), vec!["OV102"]);
        let d = &report.by_rule(RuleId::CrossLaneDeadlock)[0];
        assert!(d.ops.len() >= 2);
        assert!(d.lanes.len() >= 2, "cycle spans lanes: {:?}", d.lanes);
    }

    #[test]
    fn memory_budget_violation_is_ov301() {
        let graph = TrainGraph::single_gpu(6);
        let conv = memory_profile(&graph, &graph.conventional_backprop(), &UnitCost).unwrap();
        let ooo = memory_profile(&graph, &graph.fast_forward_backprop(), &UnitCost).unwrap();
        assert!(ooo.peak > conv.peak, "test premise");

        let v = Verifier::new(&graph).with_config(VerifyConfig {
            memory_budget: Some(conv.peak),
            ..VerifyConfig::default()
        });
        // The conventional order fits the budget...
        assert!(v.verify_order(&graph.conventional_backprop()).is_clean());
        // ...but delaying every dW to the end does not.
        let report = v.verify_order(&graph.fast_forward_backprop());
        assert_eq!(codes(&report), vec!["OV301"]);
        assert!(report.by_rule(RuleId::MemoryBudgetExceeded)[0]
            .message
            .contains("exceeds the budget"));
    }

    /// OV401 as the pairwise scan over conventional positions that the
    /// one-pass check replaced.
    fn pairwise_legality(graph: &TrainGraph, schedule: &Schedule) -> Vec<Diagnostic> {
        let conv_pos: std::collections::HashMap<Op, usize> =
            graph.conventional_backprop().into_iter().zip(0..).collect();
        let mut diags = Vec::new();
        for lane in &schedule.lanes {
            let fixed: Vec<Op> = lane
                .ops
                .iter()
                .copied()
                .filter(|op| !op.is_weight_grad_class())
                .collect();
            for (i, &a) in fixed.iter().enumerate() {
                for &b in &fixed[i + 1..] {
                    if conv_pos[&a] > conv_pos[&b] {
                        diags.push(Diagnostic {
                            rule: RuleId::NonWeightGradReorder,
                            ops: vec![a, b],
                            lanes: vec![lane.name.clone()],
                            message: format!(
                                "{a} runs before {b} on lane {}, inverting their conventional \
                                 order; out-of-order backprop may only move dW-class ops \
                                 (dW/S[dW]/U)",
                                lane.name
                            ),
                        });
                    }
                }
            }
        }
        diags
    }

    #[test]
    fn one_pass_legality_agrees_with_the_pairwise_scan() {
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (mut legal, mut illegal) = (0, 0);
        for case in 0..400 {
            let layers = 1 + case % 10;
            let graph = match case % 3 {
                0 => TrainGraph::single_gpu(layers),
                1 => TrainGraph::data_parallel(layers),
                _ => TrainGraph::pipeline_parallel(layers),
            };
            // Deal the conventional order to a few lanes, then permute a
            // random window of each lane: whole-lane shuffles, local
            // swaps, and (for windows of dW-class ops) legal moves.
            let lanes = 1 + case % 3;
            let mut dealt: Vec<Vec<Op>> = vec![Vec::new(); lanes];
            for op in graph.conventional_backprop() {
                dealt[below(lanes)].push(op);
            }
            let mut s = Schedule::new();
            for (li, mut ops) in dealt.into_iter().enumerate() {
                if ops.len() > 1 && below(3) > 0 {
                    let lo = below(ops.len());
                    let hi = lo + 1 + below(ops.len() - lo);
                    let window = &mut ops[lo..hi];
                    for i in (1..window.len()).rev() {
                        window.swap(i, below(i + 1));
                    }
                }
                s.add_lane(&format!("lane{li}"), ops);
            }
            let report = Verifier::new(&graph).verify(&s);
            let got: Vec<Diagnostic> = report
                .by_rule(RuleId::NonWeightGradReorder)
                .into_iter()
                .cloned()
                .collect();
            let want = pairwise_legality(&graph, &s);
            if want.is_empty() {
                legal += 1;
            } else {
                illegal += 1;
            }
            assert_eq!(got, want, "case {case}");
        }
        assert!(
            legal > 50 && illegal > 50,
            "{legal} legal, {illegal} illegal"
        );
    }

    #[test]
    fn report_display_and_records() {
        let graph = TrainGraph::single_gpu(3);
        let mut order = graph.conventional_backprop();
        order.pop();
        let report = Verifier::new(&graph).verify_order(&order);
        let shown = report.to_string();
        assert!(shown.contains("OV003"), "{shown}");
        let records = report.to_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].rule, "OV003");
        assert_eq!(records[0].severity, "error");
        assert!(Verifier::new(&graph)
            .verify_order(&graph.conventional_backprop())
            .to_string()
            .contains("clean"));
    }
}
