//! Predictor-guided schedule autotuning.
//!
//! The paper fixes its schedules with hand-designed heuristics —
//! Algorithm 1's multi-region joint scheduling, Algorithm 2's reverse
//! first-k, OOO-Pipe2's modulo allocation. Its own job-shop formulation
//! (§2) admits *search*, and the exact static makespan predictor
//! ([`ooo_verify::predict::predict_makespan`]) is a zero-tolerance
//! oracle that is far cheaper than discrete-event simulation. This crate
//! closes that loop: a local-search autotuner whose move set is exactly
//! the freedom out-of-order backprop licenses, whose every accepted move
//! is gated by the [`ooo_verify::Verifier`] safety analyzer, and whose
//! winner is certified once at the end at tolerance 0: a backward order
//! against the data-parallel simulator ([`order::certify_order`]), a
//! multi-lane or op-level schedule — which no engine times independently
//! — by a fresh list-evaluation pass against the incremental evaluator's
//! own pass ([`certify_schedule`]).
//!
//! # Move set
//!
//! Only `dW`-class operations
//! ([`Op::is_weight_grad_class`](ooo_core::Op::is_weight_grad_class):
//! `dW_i`, `S[dW_i]`, `U_i`) ever move — everything else sits on the backward
//! critical path or the next iteration's forward chain, which is the
//! paper's ooo-legality rule. The concrete moves are:
//!
//! - defer / hoist a `dW`-class op within its lane,
//! - swap a `dW`-class op onto another lane (sub-stream reassignment),
//! - jump to a different reverse-first-k depth (flat backward orders,
//!   see [`order`]),
//! - regroup pipeline layers under a different modulo group (see
//!   [`pipeline`]).
//!
//! # Search loop
//!
//! Best-improvement greedy descent (deterministic: candidates are tried
//! in `(predicted makespan, enumeration index)` order and the first one
//! that passes the safety gate wins), followed by seeded restart
//! perturbations: from the incumbent, a few random gate-clean moves are
//! applied with [`rand::rngs::StdRng`] seeded `1..=restarts`, greedy
//! descent re-runs, and a strictly better result replaces the incumbent
//! (which restarts the seed sweep). The loop ends when a full seed sweep
//! fails to improve — which makes tuning a *fixpoint*: re-tuning a tuned
//! schedule replays exactly that failed sweep and changes nothing.
//!
//! # Scoring
//!
//! Neighborhoods are enumerated as move descriptors and ranked once per
//! scan against the incumbent, with no candidate realized in full. Each
//! greedy scan is lazy and best-first, the way job-shop local search
//! ranks its neighbours by a heads-and-tails estimate instead of timing
//! each one: every candidate gets a bound — its exact score, or a
//! *floor* no greater than it — and sits in a min-heap keyed `(bound,
//! enumeration index)`. A popped floor is probed and pushed back with its
//! exact score; a popped exact score goes through the gate, and the
//! first candidate that passes is accepted. Floors tie on the index and
//! never exceed the score, so the scan accepts the candidate that scoring
//! everything and sorting by `(score, index)` accepts, and probes only
//! the candidates whose floor is below that score. A relocation is
//! dropped unscored when an exact lower bound already reaches its *raw
//! cutoff* — the raw makespan it must stay below to rank (the score to
//! beat, less the cap penalty when the carried-in floor already exceeds
//! the cap) — or when it certainly deadlocks.
//!
//! - In the order space ([`order`]) a relocation's makespan is closed
//!   form, and its bound is that exact score: its link plan, resumed from
//!   the incumbent's at the first service step the move can change, plus
//!   the compute lane that never waits before its update/forward chain.
//!   The plan stops at the step where its running makespan reaches the
//!   raw cutoff.
//! - In the other spaces a relocation's bound is a floor: the longest
//!   path through the moved ops and the lane stretch between their old
//!   and new slots, from the incumbent's start times and tails
//!   ([`DeltaEval::relocation_floor`]), plus the cap penalty when every
//!   relocated state pays it. Its score is one [`DeltaEval::probe`] batch
//!   on the incumbent's evaluator, which repairs the rank locally,
//!   re-times only the ops whose inputs changed and restores the
//!   incumbent from an undo log. Before the floor, a batch that moves no
//!   op of the incumbent's critical path
//!   ([`DeltaEval::keeps_critical_path`]) makes at least the incumbent's
//!   makespan, and a single move or `[dW_i, U_i]` block that closes a
//!   cycle through the incumbent's own paths
//!   ([`DeltaEval::certainly_deadlocks`]) has no score.
//! - Whole-state jumps (k-jumps, regroups) are scored once per run and
//!   ranked by that exact score.
//!
//! Perturbations score only the candidates they draw, and a candidate is
//! cloned and described only when it is gated, accepted or drawn. Under a
//! memory cap a relocation's peak is read off its times (closed-form or
//! probed) by one [`PeakSweep`] built per search — only when it is scored
//! exactly, its raw makespan is below the score it must beat and the
//! carried-in floor does not already exceed the cap.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod job;
pub mod order;
pub mod pipeline;

use ooo_core::cost::CostModel;
use ooo_core::schedule::Schedule;
use ooo_core::{SimTime, TrainGraph};
use ooo_verify::mem::{ledger_of_schedule, schedule_peak, PeakEvents, PeakSweep};
use ooo_verify::predict::{predict_makespan, DeltaEval};
use ooo_verify::{Report, Verifier, VerifyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::OnceLock;

/// Failures of a tuning run.
#[derive(Debug)]
pub enum Error {
    /// A core scheduling error (malformed schedule, unknown op, ...).
    Core(ooo_core::Error),
    /// The *input* schedule failed the safety gate; the tuner refuses to
    /// optimize an unsafe starting point. Carries the verifier report.
    Unsafe(Report),
    /// End-of-run certification failed: a fresh list-evaluation pass
    /// over the winner disagreed with a second makespan of it. This
    /// indicates an evaluator divergence and should never happen.
    Certification {
        /// The winner's makespan by a fresh [`predict_makespan`] pass.
        predicted: SimTime,
        /// The makespan it was checked against.
        checked: SimTime,
        /// What computed `checked`: `"incremental evaluation"`
        /// ([`DeltaEval::new`]), `"data-parallel simulation"` or
        /// `"tuned score"` (the search's own score of the winner).
        by: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Core(e) => write!(f, "{e}"),
            Error::Unsafe(report) => write!(
                f,
                "input schedule fails the safety gate: {}",
                report.rule_codes().join(", ")
            ),
            Error::Certification {
                predicted,
                checked,
                by,
            } => write!(
                f,
                "certification failed: predicted {predicted} != {by} {checked}"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<ooo_core::Error> for Error {
    fn from(e: ooo_core::Error) -> Self {
        Error::Core(e)
    }
}

/// Result alias of this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// How an accepted move was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Best-improvement greedy descent: strictly decreases the predicted
    /// makespan relative to the immediately preceding state.
    Greedy,
    /// Seeded restart perturbation: gate-clean but free to regress; only
    /// kept when the descent it enables ends strictly better.
    Perturb,
}

impl MoveKind {
    /// Lower-case label (`greedy` / `perturb`).
    pub fn as_str(self) -> &'static str {
        match self {
            MoveKind::Greedy => "greedy",
            MoveKind::Perturb => "perturb",
        }
    }
}

/// One accepted move of the search trajectory.
#[derive(Debug, Clone)]
pub struct AppliedMove {
    /// Whether the move came from greedy descent or a perturbation.
    pub kind: MoveKind,
    /// Human-readable description of the transformation.
    pub description: String,
    /// Predicted makespan right after applying the move.
    pub predicted: SimTime,
}

/// Tuning knobs. The defaults are deliberately small: the predictor is
/// cheap but the verifier gate runs on every accepted candidate.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Number of perturbation seeds tried per restart sweep.
    pub restarts: u64,
    /// Random moves applied per perturbation.
    pub perturb_moves: usize,
    /// Hard cap on accepted moves per greedy descent (safety valve; the
    /// integer makespan strictly decreases, so descent terminates on its
    /// own long before this).
    pub max_moves: usize,
    /// Allow moving `dW`-class ops across lanes (sub-stream swaps).
    pub cross_lane: bool,
    /// Require schedules to cover the whole graph (pass `false` for the
    /// partial schedules of engines whose updates are implicit).
    pub require_complete: bool,
    /// Optional memory budget forwarded to the verifier's liveness
    /// analysis (OV301).
    pub memory_budget: Option<u64>,
    /// Optional peak-memory cap on the *objective*: candidates whose
    /// exact static ledger peak ([`ooo_verify::mem::schedule_peak`])
    /// exceeds the cap score a large constant penalty on top of their
    /// makespan, so the search minimizes makespan subject to `peak <=
    /// cap` — an over-cap incumbent first descends into the feasible
    /// region (any under-cap candidate beats any over-cap one), then
    /// minimizes makespan inside it. Candidates are still scored on the
    /// delta-evaluation path, and a peak is read only for candidates
    /// whose raw makespan is below the score they must beat, since the
    /// penalty can only raise a score. A relocation's peak is read off
    /// the probe's own times by a [`PeakSweep`] built once per search (no
    /// ledger); when the input's carried-in bytes — the same for every
    /// relocated state, and a floor on its peak — already exceed the cap,
    /// every relocation is over it and no peak is read at all, and every
    /// relocation's floor carries the penalty. A relocation is scored
    /// exactly only when no lower bound (the incumbent's critical path,
    /// the order space's link plan, the relocation floor of
    /// [`DeltaEval::relocation_floor`]) reaches the raw makespan it must
    /// stay below — the score to beat, less the penalty when the floor
    /// already exceeds the cap — it is not a certain deadlock
    /// ([`DeltaEval::certainly_deadlocks`]), and, in greedy descent, its
    /// `(floor, index)` comes before the `(score, index)` of the
    /// candidate the scan accepts.
    /// Whole-state jumps build their target's ledger once each.
    pub memory_cap: Option<u64>,
    /// Optional certified target makespan (a proven lower bound, e.g.
    /// from `ooo_core::bounds::lower_bound` or an `ooo-cert`
    /// certificate). The search stops as soon as the incumbent reaches
    /// it: no schedule can beat a valid lower bound, so every further
    /// candidate is provably futile. With a *valid* bound this changes
    /// nothing but wasted work — the result is identical.
    pub target: Option<SimTime>,
    /// Evaluate the restart seeds of each sweep on parallel threads
    /// (`std::thread`), adopting the lowest-numbered improving seed —
    /// exactly the seed the sequential sweep would have adopted first, so
    /// the winner, trajectory, and `restarts_adopted` are identical
    /// either way. `false` forces the sequential sweep.
    pub parallel: bool,
    /// Optional relocation window: a `dW`-class op may only move to
    /// positions within `window` slots of where it currently sits (and
    /// the matching slots of other lanes). `None` enumerates every
    /// position — exact but O(ops × positions); thousand-stage inputs
    /// need a window to keep the neighborhood linear.
    pub window: Option<usize>,
    /// Optional deterministic work budget, counted in neighborhood
    /// scans (one scan = one enumeration of a neighborhood). When the
    /// budget runs out the search stops and returns the best state found
    /// so far — always a valid, verify-clean schedule, since only
    /// gate-clean moves are ever accepted. `Some(0)` returns the input
    /// untouched. Unlike [`TuneOptions::deadline`] this is pure logical
    /// work, so identical inputs give identical outputs regardless of
    /// machine speed or thread scheduling: each restart trial of a sweep
    /// is charged against the budget remaining when the sweep started,
    /// and only the adopted trial's scans are kept — exactly the
    /// accounting of the sequential sweep, so
    /// [`TuneOptions::parallel`] stays byte-deterministic under budgets.
    pub budget: Option<u64>,
    /// Optional wall-clock deadline checked cooperatively at the same
    /// points as [`TuneOptions::budget`]. Past the deadline the search
    /// returns the best state found so far. A wall-clock cutoff is
    /// inherently racy — results may differ run to run — so treat it as
    /// a safety net around a logical budget, not a substitute.
    pub deadline: Option<std::time::Instant>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            restarts: 3,
            perturb_moves: 3,
            max_moves: 256,
            cross_lane: true,
            require_complete: true,
            memory_budget: None,
            memory_cap: None,
            target: None,
            parallel: true,
            window: None,
            budget: None,
            deadline: None,
        }
    }
}

impl TuneOptions {
    /// Greedy-only options (no restarts): useful where strict
    /// monotonicity of the whole trajectory is wanted.
    pub fn greedy_only() -> Self {
        TuneOptions {
            restarts: 0,
            ..TuneOptions::default()
        }
    }

    pub(crate) fn verify_config(&self) -> VerifyConfig {
        VerifyConfig {
            require_complete: self.require_complete,
            memory_budget: self.memory_budget,
            check_legality: true,
        }
    }
}

/// The outcome of tuning one multi-lane schedule.
#[derive(Debug, Clone)]
pub struct Tuned {
    /// The tuned schedule.
    pub schedule: Schedule,
    /// Predicted makespan of the input (heuristic baseline).
    pub baseline: SimTime,
    /// Predicted makespan of the tuned schedule.
    pub predicted: SimTime,
    /// Static ledger peak of the tuned schedule; populated iff
    /// [`TuneOptions::memory_cap`] was set.
    pub peak: Option<u64>,
    /// The accepted move trajectory from input to winner.
    pub moves: Vec<AppliedMove>,
    /// How many restart perturbations were adopted.
    pub restarts_adopted: usize,
}

impl Tuned {
    /// `true` when the tuner strictly beat the baseline.
    pub fn improved(&self) -> bool {
        self.predicted < self.baseline
    }
}

/// The penalty a candidate over the memory cap pays on its score: large
/// enough that any under-cap candidate outranks any over-cap one, small
/// enough that `saturating_add` never wraps the ordering inside either
/// class.
pub(crate) const MEMORY_CAP_PENALTY: SimTime = 1 << 40;

/// A tunable search space: states scored by the exact predictor and
/// gated by the safety analyzer. Implementations enumerate the ooo-legal
/// neighborhood of a state deterministically, as cheap move descriptors:
/// a candidate is only materialized (cloned, described) when the search
/// puts it through the gate.
pub(crate) trait SearchSpace: Sync {
    /// One point of the space.
    type State: Clone + Send;
    /// One candidate move out of a state.
    type Move;
    /// Per-state scoring context, built once per neighborhood scan: the
    /// incumbent's [`DeltaEval`], or in the order space its link plan.
    type Scorer;

    /// The `ooo-verify` gate: `true` iff the state produces zero
    /// diagnostics.
    fn clean(&self, state: &Self::State) -> bool;

    /// The legal neighborhood, in a deterministic enumeration order, with
    /// moves that reproduce `state` left out.
    fn moves(&self, state: &Self::State) -> Vec<Self::Move>;

    /// The scoring context of `state`.
    fn scorer(&self, state: &Self::State) -> Self::Scorer;

    /// The (memory-capped) predicted makespan of `mv` applied to `state`,
    /// when it is below `cutoff`. `None` means the candidate scores at or
    /// above `cutoff` or does not evaluate (e.g. it deadlocks the lanes).
    /// Scores below the cutoff are exact — the same number a full
    /// [`predict_makespan`] (and ledger) pass over the materialized
    /// candidate gives — which is all the `(score, index)` ranking needs:
    /// restart perturbations score the candidates they draw against
    /// `SimTime::MAX`, and greedy descent reaches the same scores through
    /// [`SearchSpace::bound`] against the incumbent's score.
    fn score(
        &self,
        scorer: &mut Self::Scorer,
        state: &Self::State,
        mv: &Self::Move,
        cutoff: SimTime,
    ) -> Option<SimTime>;

    /// What greedy descent ranks `mv` by before it probes anything:
    /// [`Bound::Exact`] — its [`SearchSpace::score`] — or a
    /// [`Bound::Floor`] at most that score, settled by
    /// [`SearchSpace::settle`] only if the candidate can still win. `None`
    /// only when the score is `None`. The default is the exact score.
    fn bound(
        &self,
        scorer: &mut Self::Scorer,
        state: &Self::State,
        mv: &Self::Move,
        cutoff: SimTime,
    ) -> Option<Bound> {
        self.score(scorer, state, mv, cutoff).map(Bound::Exact)
    }

    /// The score of a move whose [`SearchSpace::bound`] was a floor below
    /// `cutoff`, without the checks the bound already passed.
    fn settle(
        &self,
        scorer: &mut Self::Scorer,
        state: &Self::State,
        mv: &Self::Move,
        cutoff: SimTime,
    ) -> Option<SimTime> {
        self.score(scorer, state, mv, cutoff)
    }

    /// Materializes `mv` applied to `state`, with a human-readable
    /// description of the move.
    fn apply(&self, state: &Self::State, mv: &Self::Move) -> (Self::State, String);
}

/// What a candidate is ranked by before it is probed (see
/// [`SearchSpace::bound`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bound {
    /// The candidate's exact score.
    Exact(SimTime),
    /// A lower bound on the candidate's score.
    Floor(SimTime),
}

/// The penalized score of a candidate with raw makespan `raw`, when
/// below `cutoff`: the raw makespan, plus [`MEMORY_CAP_PENALTY`] when the
/// exact peak `peak()` exceeds `cap`. The penalty only raises a score, so
/// `peak` — the costly part — is read only when `raw` is below the
/// cutoff, for candidates that can still rank. `None` when the score
/// reaches the cutoff or the peak cannot be read.
pub(crate) fn capped_below(
    raw: SimTime,
    cutoff: SimTime,
    cap: Option<u64>,
    peak: impl FnOnce() -> Option<u64>,
) -> Option<SimTime> {
    if raw >= cutoff {
        return None;
    }
    let score = match cap {
        Some(cap) if peak()? > cap => raw.saturating_add(MEMORY_CAP_PENALTY),
        _ => raw,
    };
    (score < cutoff).then_some(score)
}

/// A memory cap on a search's objective ([`TuneOptions::memory_cap`]),
/// set up once from the search's input.
pub(crate) struct MemoryCap {
    /// The cap, in bytes.
    bytes: u64,
    /// The input ledger's carried-in bytes. Relocations keep the op set,
    /// so every state they reach carries in the same bytes, and those are
    /// a floor on its peak (see [`ooo_verify::mem`]).
    floor: u64,
    /// The residency rules of the search's op set.
    sweep: PeakSweep,
}

impl MemoryCap {
    /// The cap of a search from `baseline` when `cap` is set, with the
    /// baseline's raw makespan `raw` turned into its capped score (`raw`
    /// itself when no cap is set).
    ///
    /// # Errors
    ///
    /// [`Error::Core`] when the baseline does not evaluate.
    pub(crate) fn of_baseline<C: CostModel>(
        graph: &TrainGraph,
        cost: &C,
        baseline: &Schedule,
        cap: Option<u64>,
        raw: SimTime,
    ) -> Result<(Option<Self>, SimTime)> {
        let Some(bytes) = cap else {
            return Ok((None, raw));
        };
        let ledger = ledger_of_schedule(graph, baseline, cost)?;
        let score = if ledger.peak > bytes {
            raw.saturating_add(MEMORY_CAP_PENALTY)
        } else {
            raw
        };
        let cap = MemoryCap {
            bytes,
            floor: ledger.initial,
            sweep: PeakSweep::new(graph, cost, baseline),
        };
        Ok((Some(cap), score))
    }

    /// The cap, in bytes.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The peak of a relocated state (the search's op set, at the times
    /// `span` gives by dense op index), or the floor when that alone
    /// exceeds the cap: either one is over the cap exactly when the peak
    /// is.
    pub(crate) fn relocated_peak(
        &self,
        span: impl Fn(usize) -> (SimTime, SimTime),
        events: &mut PeakEvents,
    ) -> u64 {
        if self.floor > self.bytes {
            self.floor
        } else {
            self.sweep.peak(span, events)
        }
    }
}

/// The raw makespan a relocated state must stay below to score below
/// `cutoff`: `cutoff` itself, since a score is never below the raw
/// makespan — or, when the carried-in floor already exceeds the cap,
/// `cutoff − MEMORY_CAP_PENALTY`, since every relocated state then
/// scores its raw makespan plus the penalty.
pub(crate) fn raw_cutoff(cutoff: SimTime, cap: Option<&MemoryCap>) -> SimTime {
    match cap {
        Some(cap) if cap.floor > cap.bytes => cutoff.saturating_sub(MEMORY_CAP_PENALTY),
        _ => cutoff,
    }
}

/// `true` when the relocation batch `batch` keeps the incumbent's
/// critical path and the incumbent's makespan already reaches the
/// [`raw_cutoff`]: the batch then scores at or above `cutoff`.
fn cannot_rank(
    de: &mut DeltaEval<'_>,
    batch: &[(ooo_core::Op, usize, usize)],
    cutoff: SimTime,
    cap: Option<&MemoryCap>,
) -> bool {
    de.makespan() >= raw_cutoff(cutoff, cap) && de.keeps_critical_path(batch)
}

/// Cooperative cancellation state for one search (or one restart
/// trial): counts neighborhood scans against [`TuneOptions::budget`]
/// and polls [`TuneOptions::deadline`]. Checked at every point that is
/// about to enumerate a neighborhood, which bounds overshoot to one
/// scan's worth of work.
struct Budgeter {
    scans: u64,
    limit: Option<u64>,
    deadline: Option<std::time::Instant>,
}

impl Budgeter {
    fn new(limit: Option<u64>, opts: &TuneOptions) -> Self {
        Budgeter {
            scans: 0,
            limit,
            deadline: opts.deadline,
        }
    }

    /// `true` once the logical budget is spent or the deadline passed.
    fn exhausted(&self) -> bool {
        self.limit.is_some_and(|l| self.scans >= l)
            || self
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// Charges one neighborhood scan.
    fn charge(&mut self) {
        self.scans += 1;
    }
}

/// Best-improvement greedy descent. Candidates are ranked by
/// `(predicted makespan, enumeration index)`; the best strictly
/// improving candidate that passes the gate is accepted, until none is
/// left.
fn greedy<S: SearchSpace>(
    space: &S,
    mut cur: S::State,
    mut cur_m: SimTime,
    moves: &mut Vec<AppliedMove>,
    opts: &TuneOptions,
    budget: &mut Budgeter,
) -> (S::State, SimTime) {
    while moves.len() < opts.max_moves {
        // A certified lower bound already reached proves optimality:
        // no candidate can strictly improve, skip enumerating them.
        if opts.target.is_some_and(|t| cur_m <= t) {
            break;
        }
        if budget.exhausted() {
            break;
        }
        budget.charge();
        let Some((state, description, m)) = best_move(space, &cur, cur_m) else {
            break;
        };
        moves.push(AppliedMove {
            kind: MoveKind::Greedy,
            description,
            predicted: m,
        });
        cur = state;
        cur_m = m;
    }
    (cur, cur_m)
}

/// One greedy scan: the gate-clean candidate out of `cur` with the least
/// `(score, enumeration index)` among those scoring below `cur_m`,
/// materialized with its description and score. Lazy best-first: every
/// candidate enters a min-heap keyed `(key, index, exact)` under its
/// [`SearchSpace::bound`]; a popped floor is settled and pushed back
/// with its exact score, and a popped exact entry goes through the gate.
/// A floor is at most its exact score and keys tie on the index, so an
/// exact entry pops only once no other candidate can rank before it:
/// candidates pass through the gate in `(score, index)` order, as if
/// every one were scored and sorted, while only those that can still win
/// are probed.
fn best_move<S: SearchSpace>(
    space: &S,
    cur: &S::State,
    cur_m: SimTime,
) -> Option<(S::State, String, SimTime)> {
    let cands = space.moves(cur);
    let mut scorer = space.scorer(cur);
    let mut heap: BinaryHeap<Reverse<(SimTime, usize, bool)>> = (cands.iter().enumerate())
        .filter_map(|(i, mv)| match space.bound(&mut scorer, cur, mv, cur_m)? {
            Bound::Exact(m) => Some(Reverse((m, i, true))),
            Bound::Floor(f) => Some(Reverse((f, i, false))),
        })
        .collect();
    let accepted = loop {
        let Some(Reverse((key, i, exact))) = heap.pop() else {
            break None;
        };
        if !exact {
            if let Some(m) = space.settle(&mut scorer, cur, &cands[i], cur_m) {
                debug_assert!(key <= m, "floor {key} above score {m}");
                heap.push(Reverse((m, i, true)));
            }
            continue;
        }
        let (state, description) = space.apply(cur, &cands[i]);
        if space.clean(&state) {
            break Some((state, description, key, i));
        }
    };
    #[cfg(test)]
    let accepted = tests::check_scan(space, cur, cur_m, &cands, accepted);
    accepted.map(|(state, description, m, _)| (state, description, m))
}

/// Applies up to `perturb_moves` random gate-clean moves drawn from a
/// deterministically seeded RNG. Moves are free to regress.
fn perturb<S: SearchSpace>(
    space: &S,
    cur: S::State,
    cur_m: SimTime,
    seed: u64,
    moves: &mut Vec<AppliedMove>,
    opts: &TuneOptions,
    budget: &mut Budgeter,
) -> (S::State, SimTime) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = cur;
    let mut makespan = cur_m;
    for _ in 0..opts.perturb_moves {
        if budget.exhausted() {
            break;
        }
        budget.charge();
        let cands = space.moves(&state);
        if cands.is_empty() {
            break;
        }
        // Only the drawn candidates are scored: the draw sequence and each
        // draw's outcome are those of scoring the whole neighborhood.
        let mut scorer = space.scorer(&state);
        let mut picked = None;
        for _ in 0..16 {
            let i = rng.gen_range(0..cands.len());
            if let Some(m) = space.score(&mut scorer, &state, &cands[i], SimTime::MAX) {
                let (next, description) = space.apply(&state, &cands[i]);
                if space.clean(&next) {
                    picked = Some((next, description, m));
                    break;
                }
            }
        }
        let Some((next, description, m)) = picked else {
            break;
        };
        moves.push(AppliedMove {
            kind: MoveKind::Perturb,
            description,
            predicted: m,
        });
        state = next;
        makespan = m;
    }
    (state, makespan)
}

/// One restart trial: perturb from the incumbent under `seed`, then
/// greedy-descend. Pure in the incumbent — trials for different seeds
/// are independent, which is what licenses running them in parallel.
fn restart_trial<S: SearchSpace>(
    space: &S,
    cur: S::State,
    cur_m: SimTime,
    seed: u64,
    opts: &TuneOptions,
    remaining: Option<u64>,
) -> (S::State, SimTime, Vec<AppliedMove>, u64) {
    let mut trial = Vec::new();
    let mut budget = Budgeter::new(remaining, opts);
    let (p, pm) = perturb(space, cur, cur_m, seed, &mut trial, opts, &mut budget);
    let (g, gm) = greedy(space, p, pm, &mut trial, opts, &mut budget);
    (g, gm, trial, budget.scans)
}

/// The full search loop: greedy descent, then restart sweeps over seeds
/// `1..=restarts`, adopting a perturbed descent only when strictly
/// better (and restarting the sweep on adoption). Terminates because
/// every adoption strictly decreases an integer makespan; the final
/// state is a greedy local optimum that survived a full failed sweep,
/// which is what makes re-tuning a no-op.
///
/// With [`TuneOptions::parallel`] the seeds of one sweep run on
/// `std::thread` workers. Every trial starts from the same incumbent, so
/// the sequential sweep's adoption — the *first* (lowest-numbered)
/// strictly improving seed — is recovered deterministically by merging
/// the parallel results in seed order; higher seeds' work is discarded
/// exactly as the sequential sweep would never have computed it.
pub(crate) fn local_search<S: SearchSpace>(
    space: &S,
    init: S::State,
    init_m: SimTime,
    opts: &TuneOptions,
) -> (S::State, SimTime, Vec<AppliedMove>, usize) {
    let mut moves = Vec::new();
    let mut budget = Budgeter::new(opts.budget, opts);
    let (mut cur, mut cur_m) = greedy(space, init, init_m, &mut moves, opts, &mut budget);
    let mut adopted = 0usize;
    'sweep: loop {
        // Proven optimal: restart perturbations cannot end strictly
        // better than a certified lower bound.
        if opts.target.is_some_and(|t| cur_m <= t) {
            break;
        }
        if budget.exhausted() {
            break;
        }
        // Every trial of this sweep is charged against the budget
        // remaining *now*; only the adopted trial's scans are kept.
        // That mirrors the sequential sweep (discarded trials never ran
        // there either), keeping parallel == sequential under budgets.
        let remaining = opts.budget.map(|b| b.saturating_sub(budget.scans));
        if opts.parallel && opts.restarts > 1 {
            let trials: Vec<(S::State, SimTime, Vec<AppliedMove>, u64)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (1..=opts.restarts)
                        .map(|seed| {
                            let incumbent = cur.clone();
                            scope.spawn(move || {
                                restart_trial(space, incumbent, cur_m, seed, opts, remaining)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("restart trial panicked"))
                        .collect()
                });
            // Deterministic merge: seeds are already in 1..=restarts
            // order; adopt the first improving one.
            for (g, gm, trial, spent) in trials {
                if gm < cur_m {
                    cur = g;
                    cur_m = gm;
                    moves.extend(trial);
                    adopted += 1;
                    budget.scans += spent;
                    continue 'sweep;
                }
            }
        } else {
            for seed in 1..=opts.restarts {
                let (g, gm, trial, spent) =
                    restart_trial(space, cur.clone(), cur_m, seed, opts, remaining);
                if gm < cur_m {
                    cur = g;
                    cur_m = gm;
                    moves.extend(trial);
                    adopted += 1;
                    budget.scans += spent;
                    continue 'sweep;
                }
            }
        }
        break;
    }
    (cur, cur_m, moves, adopted)
}

/// The multi-lane schedule space: `dW`-class ops relocate within their
/// lane and (optionally) across lanes.
struct ScheduleSpace<'g, C: CostModel> {
    graph: &'g TrainGraph,
    cost: &'g C,
    verifier: Verifier<'g, &'g C>,
    cross_lane: bool,
    window: Option<usize>,
    memory_cap: Option<MemoryCap>,
}

/// The scoring context of a multi-lane state: its evaluator, and the
/// event buffer a capped search reads peaks with.
pub(crate) struct RelocationScorer<'g> {
    de: DeltaEval<'g>,
    events: PeakEvents,
}

impl<'g> RelocationScorer<'g> {
    /// The scorer of `state`, a search state.
    pub(crate) fn new<C: CostModel>(graph: &'g TrainGraph, state: &Schedule, cost: &C) -> Self {
        RelocationScorer {
            de: DeltaEval::new(graph, state, cost).expect(SEARCH_STATES_EVALUATE),
            events: PeakEvents::default(),
        }
    }
}

impl<'g, C: CostModel + Sync> SearchSpace for ScheduleSpace<'g, C> {
    type State = Schedule;
    type Move = Relocation;
    type Scorer = RelocationScorer<'g>;

    fn clean(&self, state: &Schedule) -> bool {
        self.verifier.verify(state).is_clean()
    }

    fn moves(&self, state: &Schedule) -> Vec<Relocation> {
        schedule_relocations(self.graph, state, self.cross_lane, self.window)
    }

    fn scorer(&self, state: &Schedule) -> RelocationScorer<'g> {
        RelocationScorer::new(self.graph, state, self.cost)
    }

    fn score(
        &self,
        sc: &mut RelocationScorer<'g>,
        _: &Schedule,
        mv: &Relocation,
        cutoff: SimTime,
    ) -> Option<SimTime> {
        score_relocation(self.memory_cap.as_ref(), sc, mv, cutoff)
    }

    fn bound(
        &self,
        sc: &mut RelocationScorer<'g>,
        _: &Schedule,
        mv: &Relocation,
        cutoff: SimTime,
    ) -> Option<Bound> {
        bound_relocation(self.memory_cap.as_ref(), sc, mv, cutoff)
    }

    fn settle(
        &self,
        sc: &mut RelocationScorer<'g>,
        _: &Schedule,
        mv: &Relocation,
        cutoff: SimTime,
    ) -> Option<SimTime> {
        probe_relocation(self.memory_cap.as_ref(), sc, mv, cutoff)
    }

    fn apply(&self, state: &Schedule, mv: &Relocation) -> (Schedule, String) {
        (mv.apply(state), mv.describe(state))
    }
}

/// Why a search state always seeds a [`DeltaEval`]: the input passed the
/// predictor before the search started, and every later state was scored
/// — so it evaluated — before it was accepted.
pub(crate) const SEARCH_STATES_EVALUATE: &str =
    "search states evaluate: each was scored before it was accepted";

/// Scores one relocation of the scorer's state below `cutoff` (see
/// [`SearchSpace::score`]) as one [`probe_relocation`], unless
/// [`unprobed`] drops it. Shared by the bundle space above and the
/// pipeline space's in-lane moves.
pub(crate) fn score_relocation(
    cap: Option<&MemoryCap>,
    sc: &mut RelocationScorer<'_>,
    mv: &Relocation,
    cutoff: SimTime,
) -> Option<SimTime> {
    let (batch, len) = mv.batch();
    if unprobed(cap, &mut sc.de, &batch[..len], cutoff) {
        return None;
    }
    probe_relocation(cap, sc, mv, cutoff)
}

/// The [`SearchSpace::bound`] of one relocation of the scorer's state,
/// unless [`unprobed`] drops it: the batch's
/// [`DeltaEval::relocation_floor`], plus the cap penalty when the
/// carried-in floor already exceeds the cap ([`raw_cutoff`]). A floor at
/// the raw cutoff drops the batch too.
pub(crate) fn bound_relocation(
    cap: Option<&MemoryCap>,
    sc: &mut RelocationScorer<'_>,
    mv: &Relocation,
    cutoff: SimTime,
) -> Option<Bound> {
    let (batch, len) = mv.batch();
    let (de, batch) = (&mut sc.de, &batch[..len]);
    if unprobed(cap, de, batch, cutoff) {
        return None;
    }
    let raw = raw_cutoff(cutoff, cap);
    let floor = de.relocation_floor(batch).unwrap_or(0);
    // Below a positive raw cutoff, `cutoff - raw` is the penalty every
    // relocated state pays, or 0.
    (floor < raw).then(|| Bound::Floor(floor + (cutoff - raw)))
}

/// The two checks that drop a relocation batch unprobed: [`cannot_rank`],
/// and a single move or `[dW_i, U_i]` block that closes a cycle through
/// the incumbent's own paths ([`DeltaEval::certainly_deadlocks`]), which
/// has no score.
fn unprobed(
    cap: Option<&MemoryCap>,
    de: &mut DeltaEval<'_>,
    batch: &[(ooo_core::Op, usize, usize)],
    cutoff: SimTime,
) -> bool {
    cannot_rank(de, batch, cutoff, cap) || de.certainly_deadlocks(batch)
}

/// The score of one relocation of the scorer's state below `cutoff`, as
/// one [`DeltaEval::probe_with`] batch, which re-times only what the
/// batch changes, reading the candidate's peak
/// ([`MemoryCap::relocated_peak`]) off the probed times before the
/// restore when its raw makespan is below the cutoff ([`capped_below`]).
pub(crate) fn probe_relocation(
    cap: Option<&MemoryCap>,
    sc: &mut RelocationScorer<'_>,
    mv: &Relocation,
    cutoff: SimTime,
) -> Option<SimTime> {
    #[cfg(test)]
    tests::PROBES.with(|p| p.set(p.get() + 1));
    let (batch, len) = mv.batch();
    let (de, events) = (&mut sc.de, &mut sc.events);
    de.probe_with(&batch[..len], |de, raw| {
        capped_below(raw, cutoff, cap.map(MemoryCap::bytes), || {
            cap.map(|cap| cap.relocated_peak(|v| de.span_at(v), events))
        })
    })
    .ok()
    .flatten()
}

/// A whole-state replacement move (a k-jump, a regroup). Its target does
/// not depend on the incumbent, so its raw makespan is computed once per
/// tuning run, and under a memory cap its ledger peak at most once (the
/// carried-in floor is not applied: a target need not schedule the
/// input's op set).
pub(crate) struct Jump<T> {
    /// The move's label (`k`, modulo group).
    pub(crate) label: usize,
    /// What the move jumps to: the target state itself (a k-jump's
    /// order), or a key the space renders it from again when it is
    /// applied (a regroup's device map).
    pub(crate) target: T,
    /// Raw predicted makespan; `None` when the target does not evaluate.
    raw: Option<SimTime>,
    peak: OnceLock<Option<u64>>,
}

impl<T> Jump<T> {
    pub(crate) fn new(label: usize, target: T, raw: Option<SimTime>) -> Self {
        Jump {
            label,
            target,
            raw,
            peak: OnceLock::new(),
        }
    }

    /// The jump's capped score below `cutoff` (see
    /// [`SearchSpace::score`]); `peak` computes the target's ledger peak
    /// the first time a cap needs it, when the raw score is below the
    /// cutoff.
    pub(crate) fn score(
        &self,
        cutoff: SimTime,
        cap: Option<u64>,
        peak: impl FnOnce(&T) -> Option<u64>,
    ) -> Option<SimTime> {
        capped_below(self.raw?, cutoff, cap, || {
            *self.peak.get_or_init(|| peak(&self.target))
        })
    }
}

/// One relocation of a `dW`-class op: `op` — together with its `U_i`
/// when `block` — moves to position `to` of lane `lane`. The batch
/// semantics are [`DeltaEval::relocate_many`]'s (see
/// [`apply_move_batch`]); a block lands as `[dW_i, U_i]` at `to`,
/// `to + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Relocation {
    op: ooo_core::Op,
    block: bool,
    lane: usize,
    to: usize,
}

impl Relocation {
    /// The move as a relocation batch: the first `len` entries of the
    /// array.
    fn batch(&self) -> ([(ooo_core::Op, usize, usize); 2], usize) {
        let first = (self.op, self.lane, self.to);
        match (self.block, self.op) {
            (true, ooo_core::Op::WeightGrad(layer)) => (
                [first, (ooo_core::Op::Update(layer), self.lane, self.to + 1)],
                2,
            ),
            _ => ([first; 2], 1),
        }
    }

    /// The move applied to a clone of `state`.
    fn apply(&self, state: &Schedule) -> Schedule {
        let (batch, len) = self.batch();
        apply_move_batch(state, &batch[..len])
    }

    /// `move <op>[+<update>] to <lane>:<position>`.
    fn describe(&self, state: &Schedule) -> String {
        let lane = &state.lanes[self.lane].name;
        let (batch, len) = self.batch();
        if len == 2 {
            format!("move {}+{} to {lane}:{}", batch[0].0, batch[1].0, self.to)
        } else {
            format!("move {} to {lane}:{}", self.op, self.to)
        }
    }
}

/// `true` when target position `to` falls inside the relocation window
/// around current position `pi` (`None` admits everything).
fn in_window(window: Option<usize>, pi: usize, to: usize) -> bool {
    match window {
        None => true,
        Some(w) => to.abs_diff(pi) <= w,
    }
}

/// Enumerates every relocation of a `dW`-class op: all in-lane target
/// positions, plus (when `cross_lane`) every insertion point of every
/// other lane. A `dW_i` whose `U_i` sits on the same lane additionally
/// moves as a `[dW_i, U_i]` block — relocating the gradient alone would
/// always violate the update's dependency, so deferring a weight
/// gradient past its own update needs the pair to travel together. The
/// one move that reproduces the input — a block already in place put
/// back where it is — is left out.
///
/// Enumeration order is the repository-wide tie-break key
/// ([`ooo_core::schedule::ReadyQueue`]): moved ops in ascending dense
/// arena id, targets in ascending `(lane, position)`. The greedy ranking
/// accepts equal-score candidates by enumeration index, so this order is
/// what makes ties resolve to the smallest op id — independent of where
/// the op happens to sit in the incumbent's lanes, and therefore
/// identical for every schedule that reaches the same search state.
///
/// `window` (see [`TuneOptions::window`]) restricts target positions to
/// within that many slots of the op's current position — on every lane,
/// using the same index band — turning the O(ops × positions)
/// neighborhood linear for thousand-stage schedules. `None` keeps the
/// exhaustive enumeration.
pub(crate) fn schedule_relocations(
    graph: &TrainGraph,
    state: &Schedule,
    cross_lane: bool,
    window: Option<usize>,
) -> Vec<Relocation> {
    use ooo_core::Op;
    let mut out = Vec::new();
    let mut movers: Vec<(usize, usize, usize, Op)> = Vec::new();
    for (li, lane) in state.lanes.iter().enumerate() {
        for (pi, &op) in lane.ops.iter().enumerate() {
            if !op.is_weight_grad_class() {
                continue;
            }
            let id = graph.op_index(op).unwrap_or(usize::MAX);
            movers.push((id, li, pi, op));
        }
    }
    movers.sort_unstable();
    for (_, li, pi, op) in movers {
        let lane = &state.lanes[li];
        let mut push = |block: bool, lj: usize, to: usize| {
            if in_window(window, pi, to) {
                out.push(Relocation {
                    op,
                    block,
                    lane: lj,
                    to,
                });
            }
        };
        // In-lane: every position of the reduced lane except the
        // identity.
        for to in (0..lane.ops.len()).filter(|&to| to != pi) {
            push(false, li, to);
        }
        let others = || {
            state
                .lanes
                .iter()
                .enumerate()
                .filter(move |&(lj, _)| cross_lane && lj != li)
        };
        for (lj, other) in others() {
            for to in 0..=other.ops.len() {
                push(false, lj, to);
            }
        }
        // Block moves: `[dW_i, U_i]` as one unit.
        let Op::WeightGrad(layer) = op else { continue };
        let Some(upos) = lane.ops.iter().position(|&o| o == Op::Update(layer)) else {
            continue;
        };
        for to in 0..=lane.ops.len().saturating_sub(2) {
            if !(to == pi && upos == pi + 1) {
                push(true, li, to);
            }
        }
        for (lj, other) in others() {
            for to in 0..=other.ops.len() {
                push(true, lj, to);
            }
        }
    }
    out
}

/// Applies a relocation batch to a plain [`Schedule`] clone, mirroring
/// [`DeltaEval::relocate_many`]: every `(op, lane, position)` is removed
/// from the schedule, then inserted at the target coordinates in
/// ascending `(lane, position)` order, clamped to the lane length.
pub fn apply_move_batch(state: &Schedule, batch: &[(ooo_core::Op, usize, usize)]) -> Schedule {
    let mut next = state.clone();
    for &(op, _, _) in batch {
        for lane in &mut next.lanes {
            lane.ops.retain(|&o| o != op);
        }
    }
    let mut inserts = batch.to_vec();
    inserts.sort_unstable_by_key(|&(_, l, p)| (l, p));
    for (op, l, p) in inserts {
        let ops = &mut next.lanes[l].ops;
        ops.insert(p.min(ops.len()), op);
    }
    next
}

/// Tunes a multi-lane schedule in place: greedy + seeded-restart search
/// over `dW`-class relocations, scored by the exact predictor and gated
/// by the verifier.
///
/// # Errors
///
/// [`Error::Unsafe`] when the *input* already fails the safety gate;
/// [`Error::Core`] when the input does not evaluate under the predictor.
pub fn tune_schedule<C: CostModel + Sync>(
    graph: &TrainGraph,
    baseline: &Schedule,
    cost: &C,
    opts: &TuneOptions,
) -> Result<Tuned> {
    let verifier = Verifier::new(graph)
        .with_config(opts.verify_config())
        .with_cost(cost);
    let report = verifier.verify(baseline);
    if !report.is_clean() {
        return Err(Error::Unsafe(report));
    }
    let base_raw = predict_makespan(graph, baseline, cost)?.makespan();
    let (memory_cap, base_m) =
        MemoryCap::of_baseline(graph, cost, baseline, opts.memory_cap, base_raw)?;
    let space = ScheduleSpace {
        graph,
        cost,
        verifier,
        cross_lane: opts.cross_lane,
        window: opts.window,
        memory_cap,
    };
    let (schedule, predicted, moves, restarts_adopted) =
        local_search(&space, baseline.clone(), base_m, opts);
    // Capped scores carry the penalty; report the raw makespan (and the
    // winner's exact peak) instead.
    let (predicted, peak) = match opts.memory_cap {
        None => (predicted, None),
        Some(_) => (
            predict_makespan(graph, &schedule, cost)?.makespan(),
            Some(schedule_peak(graph, &schedule, cost)?),
        ),
    };
    Ok(Tuned {
        schedule,
        baseline: base_raw,
        predicted,
        peak,
        moves,
        restarts_adopted,
    })
}

/// Certifies a tuned schedule: evaluates it afresh with the one
/// list-evaluation pass ([`predict_makespan`]) and demands the makespan
/// of the incremental evaluator's own, separately written pass
/// ([`DeltaEval::new`]) match **exactly** (tolerance 0). Returns the
/// certified makespan. No engine times a multi-lane or op-level
/// schedule independently (see [`ooo_core::list_scheduling`]), so this
/// checks the two evaluators the tuner relies on, not the recurrence.
///
/// # Errors
///
/// [`Error::Certification`] on any disagreement; [`Error::Core`] when
/// the schedule does not evaluate.
pub fn certify_schedule<C: CostModel>(
    graph: &TrainGraph,
    schedule: &Schedule,
    cost: &C,
) -> Result<SimTime> {
    let predicted = predict_makespan(graph, schedule, cost)?.makespan();
    let checked = DeltaEval::new(graph, schedule, cost)?.makespan();
    if predicted != checked {
        return Err(Error::Certification {
            predicted,
            checked,
            by: "incremental evaluation",
        });
    }
    Ok(predicted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooo_core::cost::UnitCost;
    use ooo_core::Op;
    use std::cell::Cell;

    thread_local! {
        /// The relocation probes [`probe_relocation`] ran on this thread.
        pub(super) static PROBES: Cell<u64> = const { Cell::new(0) };
        /// What [`check_scan`] does with each greedy scan on this thread.
        static SCAN: Cell<Scan> = const { Cell::new(Scan::Lazy) };
        /// Scans [`check_scan`] compared, and how many of them put a
        /// best-ranked candidate that fails the gate first.
        static COMPARED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    /// How greedy scans run on a thread.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Scan {
        /// The lazy best-first scan alone.
        Lazy,
        /// The lazy scan, asserted equal to [`sorted_scan`] at every scan.
        Checked,
        /// [`sorted_scan`]'s pick replaces the lazy scan's.
        Sorted,
    }

    /// The eager scan the lazy one replaced: every candidate scored
    /// against `cur_m` by [`SearchSpace::score`] and sorted by `(score,
    /// index)`, then put through the gate in that order. Returns the first
    /// that passes, and whether the best-ranked candidate failed the gate.
    fn sorted_scan<S: SearchSpace>(
        space: &S,
        cur: &S::State,
        cur_m: SimTime,
        cands: &[S::Move],
    ) -> (Option<(SimTime, usize)>, bool) {
        let mut scorer = space.scorer(cur);
        let mut scored: Vec<(SimTime, usize)> = (cands.iter().enumerate())
            .filter_map(|(i, mv)| space.score(&mut scorer, cur, mv, cur_m).map(|m| (m, i)))
            .collect();
        scored.sort_unstable();
        let pick =
            (scored.iter().copied()).find(|&(_, i)| space.clean(&space.apply(cur, &cands[i]).0));
        (pick, scored.first().is_some_and(|&best| Some(best) != pick))
    }

    /// The greedy-scan hook: under [`Scan::Checked`] asserts that the
    /// lazy scan accepted the `(score, index)` of [`sorted_scan`], under
    /// [`Scan::Sorted`] returns the sorted scan's pick instead.
    pub(super) fn check_scan<S: SearchSpace>(
        space: &S,
        cur: &S::State,
        cur_m: SimTime,
        cands: &[S::Move],
        lazy: Option<(S::State, String, SimTime, usize)>,
    ) -> Option<(S::State, String, SimTime, usize)> {
        let mode = SCAN.with(Cell::get);
        if mode == Scan::Lazy {
            return lazy;
        }
        let (sorted, gated) = sorted_scan(space, cur, cur_m, cands);
        COMPARED.with(|c| {
            let (scans, gated_first) = c.get();
            c.set((scans + 1, gated_first + u64::from(gated)));
        });
        if mode == Scan::Checked {
            assert_eq!(lazy.as_ref().map(|l| (l.2, l.3)), sorted);
            return lazy;
        }
        sorted.map(|(m, i)| {
            let (state, description) = space.apply(cur, &cands[i]);
            (state, description, m, i)
        })
    }

    /// A two-lane single-GPU schedule with all dW/U work appended to the
    /// end of the sub lane: the tuner should interleave it.
    fn lazy_two_lane(l: usize) -> (TrainGraph, Schedule) {
        let graph = TrainGraph::single_gpu(l);
        let mut main = vec![Op::Loss];
        for i in (2..=l).rev() {
            main.push(Op::OutputGrad(ooo_core::op::LayerId(i)));
        }
        for i in 1..=l {
            main.push(Op::Forward(ooo_core::op::LayerId(i)));
        }
        let mut sub = Vec::new();
        for i in 1..=l {
            sub.push(Op::WeightGrad(ooo_core::op::LayerId(i)));
            sub.push(Op::Update(ooo_core::op::LayerId(i)));
        }
        let mut s = Schedule::new();
        s.add_lane("main", main);
        s.add_lane("sub", sub);
        (graph, s)
    }

    #[test]
    fn tuner_improves_a_lazy_schedule_and_certifies() {
        let (graph, baseline) = lazy_two_lane(6);
        let tuned = tune_schedule(&graph, &baseline, &UnitCost, &TuneOptions::default()).unwrap();
        assert!(tuned.predicted <= tuned.baseline);
        let certified = certify_schedule(&graph, &tuned.schedule, &UnitCost).unwrap();
        assert_eq!(certified, tuned.predicted);
    }

    #[test]
    fn tuning_is_deterministic() {
        let (graph, baseline) = lazy_two_lane(5);
        let a = tune_schedule(&graph, &baseline, &UnitCost, &TuneOptions::default()).unwrap();
        let b = tune_schedule(&graph, &baseline, &UnitCost, &TuneOptions::default()).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.predicted, b.predicted);
        assert_eq!(a.moves.len(), b.moves.len());
    }

    #[test]
    fn tiny_budget_still_yields_valid_certified_result() {
        let (graph, baseline) = lazy_two_lane(6);
        for budget in [0u64, 1, 2, 5] {
            let opts = TuneOptions {
                budget: Some(budget),
                ..TuneOptions::default()
            };
            let tuned = tune_schedule(&graph, &baseline, &UnitCost, &opts).unwrap();
            // Best-so-far is never worse than the input and still
            // verifies and certifies exactly.
            assert!(tuned.predicted <= tuned.baseline, "budget {budget}");
            let certified = certify_schedule(&graph, &tuned.schedule, &UnitCost).unwrap();
            assert_eq!(certified, tuned.predicted, "budget {budget}");
        }
        // Zero budget returns the input untouched.
        let opts = TuneOptions {
            budget: Some(0),
            ..TuneOptions::default()
        };
        let tuned = tune_schedule(&graph, &baseline, &UnitCost, &opts).unwrap();
        assert_eq!(tuned.schedule, baseline);
        assert!(tuned.moves.is_empty());
    }

    /// Everything a tuning run reports, for parallel-vs-sequential
    /// comparisons: the result's debug rendering, the predicted makespan,
    /// the move trajectory, `restarts_adopted` and the peak.
    type Run = (String, SimTime, Vec<String>, usize, Option<u64>);

    fn run_of(
        result: impl fmt::Debug,
        predicted: SimTime,
        moves: &[AppliedMove],
        restarts_adopted: usize,
        peak: Option<u64>,
    ) -> Run {
        let trajectory = moves
            .iter()
            .map(|m| format!("{} {} {}", m.kind.as_str(), m.description, m.predicted))
            .collect();
        let result = format!("{result:?}");
        (result, predicted, trajectory, restarts_adopted, peak)
    }

    /// Parallel restart sweeps adopt exactly the sequential sweep's winner
    /// under every budget, on every search space: the bundle space, the
    /// order space under a binding memory cap (its lazily built ledgers
    /// and k-jump table are shared by the restart threads), and the
    /// pipeline space (its regroup table likewise).
    #[test]
    fn budgeted_tuning_is_deterministic_parallel_or_not() {
        let (graph, baseline) = lazy_two_lane(6);
        let inst = ooo_core::reverse_k::order_instance(12, 0, 3).unwrap();
        let runs: [&dyn Fn(&TuneOptions) -> Run; 3] = [
            &|opts| {
                let t = tune_schedule(&graph, &baseline, &UnitCost, opts).unwrap();
                run_of(
                    &t.schedule,
                    t.predicted,
                    &t.moves,
                    t.restarts_adopted,
                    t.peak,
                )
            },
            &|opts| {
                let opts = TuneOptions {
                    memory_cap: Some(15),
                    ..opts.clone()
                };
                let t = order::tune_backward_order(
                    &inst.graph,
                    &inst.order,
                    Some(0),
                    &inst.cost,
                    ooo_core::datapar::CommPolicy::PriorityByLayer,
                    order::KFamily::ReverseFirstK,
                    &opts,
                )
                .unwrap();
                run_of(&t.order, t.predicted, &t.moves, t.restarts_adopted, t.peak)
            },
            &|opts| {
                let t = pipeline::tune_pipeline(
                    12,
                    4,
                    ooo_core::pipeline::Strategy::GPipe,
                    1,
                    &UnitCost,
                    opts,
                )
                .unwrap();
                run_of(
                    &t.schedule,
                    t.predicted,
                    &t.moves,
                    t.restarts_adopted,
                    t.peak,
                )
            },
        ];
        for (space, run) in runs.iter().enumerate() {
            for budget in [Some(1u64), Some(3), Some(7), Some(100), None] {
                let par = TuneOptions {
                    budget,
                    parallel: true,
                    ..TuneOptions::default()
                };
                let seq = TuneOptions {
                    parallel: false,
                    ..par.clone()
                };
                assert_eq!(run(&par), run(&seq), "space {space}, budget {budget:?}");
            }
        }
    }

    /// Runs `tune` under scan mode `mode` on this thread, returning its
    /// result and the `(scans, gated first)` tally of [`check_scan`].
    fn scanned<R>(mode: Scan, tune: impl FnOnce() -> R) -> (R, (u64, u64)) {
        SCAN.with(|s| s.set(mode));
        COMPARED.with(|c| c.set((0, 0)));
        let out = tune();
        SCAN.with(|s| s.set(Scan::Lazy));
        (out, COMPARED.with(Cell::get))
    }

    /// The lazy best-first scan accepts exactly what scoring every
    /// candidate and sorting by `(score, index)` accepts, at every scan
    /// of sequential tunes: the order space (uncapped and under a binding
    /// cap), the multi-lane space with cross-lane moves (uncapped, under
    /// a cap, and under a verifier memory budget whose gate turns down
    /// best-ranked candidates), and the pipeline space (uncapped, a cap
    /// between the carried-in floor and the peak, and a cap below the
    /// floor, where floors carry the penalty). Each tune's result and
    /// trajectory under the sorted scan equal those under the lazy one.
    #[test]
    fn lazy_scans_accept_what_sorted_scans_accept() {
        use ooo_core::cost::{LayerCost, TableCost};
        use ooo_core::pipeline::Strategy;
        let (graph, baseline) = lazy_two_lane(6);
        let bytes = TableCost::uniform(
            6,
            LayerCost {
                weight_bytes: 10,
                out_grad_bytes: 3,
                ..LayerCost::default()
            },
        );
        let peak = ooo_verify::mem::schedule_peak(&graph, &baseline, &bytes).unwrap();
        let inst = ooo_core::reverse_k::order_instance(12, 0, 3).unwrap();
        let opts = |memory_cap, memory_budget| TuneOptions {
            memory_cap,
            memory_budget,
            parallel: false,
            ..TuneOptions::default()
        };
        let order = |cap| {
            let t = order::tune_backward_order(
                &inst.graph,
                &inst.order,
                Some(0),
                &inst.cost,
                ooo_core::datapar::CommPolicy::PriorityByLayer,
                order::KFamily::ReverseFirstK,
                &opts(cap, None),
            )
            .unwrap();
            run_of(&t.order, t.predicted, &t.moves, t.restarts_adopted, t.peak)
        };
        let lanes = |cap, budget| {
            let t = tune_schedule(&graph, &baseline, &bytes, &opts(cap, budget)).unwrap();
            run_of(
                &t.schedule,
                t.predicted,
                &t.moves,
                t.restarts_adopted,
                t.peak,
            )
        };
        let pipe = |layers, strategy, cap, budget| {
            let opts = opts(cap, budget);
            let t = pipeline::tune_pipeline(layers, 4, strategy, 1, &UnitCost, &opts).unwrap();
            run_of(
                &t.schedule,
                t.predicted,
                &t.moves,
                t.restarts_adopted,
                t.peak,
            )
        };
        let megatron = Strategy::MegatronInterleaved { chunks: 2 };
        let cases: [(&str, &dyn Fn() -> Run); 10] = [
            ("order", &|| order(None)),
            ("order cap 15", &|| order(Some(15))),
            ("lanes", &|| lanes(None, None)),
            ("lanes cap", &|| lanes(Some(peak - 1), None)),
            ("lanes budget 34", &|| lanes(None, Some(34))),
            ("gpipe 12x4", &|| pipe(12, Strategy::GPipe, None, None)),
            ("gpipe 12x4 budget 15", &|| {
                pipe(12, Strategy::GPipe, None, Some(15))
            }),
            ("pipe2 8x4 cap 12", &|| {
                pipe(8, Strategy::OooPipe2, Some(12), None)
            }),
            ("gpipe 12x4 cap 1", &|| {
                pipe(12, Strategy::GPipe, Some(1), None)
            }),
            ("megatron 8x4", &|| pipe(8, megatron, None, None)),
        ];
        let mut gated_first = 0;
        for (name, tune) in cases {
            let (sorted, _) = scanned(Scan::Sorted, tune);
            let (lazy, (scans, gated)) = scanned(Scan::Checked, tune);
            assert!(scans > 0, "{name}: no scan compared");
            assert_eq!(lazy, sorted, "{name}");
            gated_first += gated;
        }
        assert!(gated_first > 0, "no best-ranked candidate failed the gate");
    }

    /// A deterministic work guard on the lazy scan: a sequential-restart
    /// tune of GPipe 48x8, as the CLI runs it, probes at most 500
    /// relocations (scoring every candidate probed 24,186).
    #[test]
    fn gpipe_48x8_tune_probes_few_relocations() {
        let (graph, schedule) =
            ooo_core::pipeline::op_level_schedule(48, 8, ooo_core::pipeline::Strategy::GPipe, 1);
        let opts = TuneOptions {
            parallel: false,
            target: Some(ooo_core::bounds::schedule_lower_bound(
                &graph, &UnitCost, &schedule,
            )),
            ..TuneOptions::default()
        };
        PROBES.with(|p| p.set(0));
        let t = pipeline::tune_pipeline(
            48,
            8,
            ooo_core::pipeline::Strategy::GPipe,
            1,
            &UnitCost,
            &opts,
        )
        .unwrap();
        let probes = PROBES.with(Cell::get);
        assert!(t.improved());
        assert!(probes <= 500, "{probes} probes");
    }

    #[test]
    fn expired_deadline_returns_baseline_unharmed() {
        let (graph, baseline) = lazy_two_lane(5);
        let opts = TuneOptions {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..TuneOptions::default()
        };
        let tuned = tune_schedule(&graph, &baseline, &UnitCost, &opts).unwrap();
        assert_eq!(tuned.schedule, baseline);
        assert_eq!(tuned.predicted, tuned.baseline);
        certify_schedule(&graph, &tuned.schedule, &UnitCost).unwrap();
    }

    #[test]
    fn memory_cap_steers_the_search_under_the_budget() {
        use ooo_core::cost::{LayerCost, TableCost};
        use ooo_core::op::LayerId;
        // Eager dW run, update tail at the end: every wgrad stays live
        // until its late update, stacking the peak. On a single lane the
        // makespan is reorder-invariant, so only the cap penalty can
        // drive the search — it must find [dW, U] deferrals that bring
        // the ledger peak under the cap.
        let l = 5;
        let graph = TrainGraph::single_gpu(l);
        let cost = TableCost::uniform(
            l,
            LayerCost {
                weight_bytes: 10,
                ..LayerCost::default()
            },
        );
        let mut ops = vec![Op::Loss];
        for i in (2..=l).rev() {
            ops.push(Op::OutputGrad(LayerId(i)));
        }
        for i in (1..=l).rev() {
            ops.push(Op::WeightGrad(LayerId(i)));
        }
        for i in 1..=l {
            ops.push(Op::Update(LayerId(i)));
        }
        for i in 1..=l {
            ops.push(Op::Forward(LayerId(i)));
        }
        let baseline = Schedule::single_lane("gpu", ops);
        let base_peak = ooo_verify::mem::schedule_peak(&graph, &baseline, &cost).unwrap();
        let cap = base_peak * 9 / 10;
        let opts = TuneOptions {
            memory_cap: Some(cap),
            ..TuneOptions::default()
        };
        let tuned = tune_schedule(&graph, &baseline, &cost, &opts).unwrap();
        let peak = tuned.peak.expect("cap set implies a reported peak");
        assert!(
            peak <= cap,
            "peak {peak} exceeds cap {cap} (base {base_peak})"
        );
        assert_eq!(
            peak,
            ooo_verify::mem::schedule_peak(&graph, &tuned.schedule, &cost).unwrap()
        );
        // The winner still certifies: reported makespans are raw, not
        // penalty-laden.
        let certified = certify_schedule(&graph, &tuned.schedule, &cost).unwrap();
        assert_eq!(certified, tuned.predicted);
        // Without a cap the same input reports no peak and stays put.
        let untouched = tune_schedule(&graph, &baseline, &cost, &TuneOptions::default()).unwrap();
        assert_eq!(untouched.peak, None);
    }

    #[test]
    fn unsafe_input_is_refused() {
        let graph = TrainGraph::single_gpu(3);
        // dW3 scheduled before the loss: a dependency-order violation.
        let s = Schedule::single_lane(
            "gpu",
            vec![
                Op::WeightGrad(ooo_core::op::LayerId(3)),
                Op::Loss,
                Op::OutputGrad(ooo_core::op::LayerId(3)),
                Op::OutputGrad(ooo_core::op::LayerId(2)),
                Op::WeightGrad(ooo_core::op::LayerId(2)),
                Op::WeightGrad(ooo_core::op::LayerId(1)),
            ],
        );
        let opts = TuneOptions {
            require_complete: false,
            ..TuneOptions::default()
        };
        assert!(matches!(
            tune_schedule(&graph, &s, &UnitCost, &opts),
            Err(Error::Unsafe(_))
        ));
    }

    /// The move enumerator visits moved ops in ascending arena id — the
    /// repository-wide `(priority, op id)` tie-break key — regardless of
    /// which lane or position the op currently occupies. This is what
    /// pins equal-score greedy ties (the `(score, enumeration index)`
    /// ranking) to the smallest op id.
    #[test]
    fn move_enumeration_follows_arena_id_under_shuffled_lanes() {
        let graph = TrainGraph::single_gpu(4);
        let (_, baseline) = lazy_two_lane(4);
        // The same lane contents with the lanes swapped: position-order
        // enumeration would visit the dW-class ops in a different
        // sequence; the arena-id key must not care.
        let mut swapped = Schedule::new();
        swapped.add_lane("sub", baseline.lanes[1].ops.clone());
        swapped.add_lane("main", baseline.lanes[0].ops.clone());
        let ids = |s: &Schedule| -> Vec<usize> {
            schedule_relocations(&graph, s, true, None)
                .iter()
                .map(|r| graph.op_index(r.op).unwrap())
                .collect()
        };
        let a = ids(&baseline);
        let b = ids(&swapped);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(a, sorted, "enumeration is not ascending in arena id");
        assert_eq!(a, b, "enumeration depends on lane placement");
    }

    /// `score_relocation` reads off a relocation's probed times exactly
    /// the ledger peak of the materialized candidate, over every
    /// relocation of op-level gpipe and pipe2 at 8×4 (in-lane, as the
    /// pipeline space moves them) and of the strategy zoo's multi-region
    /// schedule of 8 layers under unit cost (cross-lane and block moves
    /// too; a partial schedule, so weight gradients are retained). The
    /// capped scores built on that peak are checked, cap by cap, by
    /// `pruned_relocation_scores_equal_the_unpruned_probe`.
    #[test]
    fn relocation_sweep_peak_equals_the_materialized_ledger_peak() {
        for (graph, state, cross_lane) in &relocation_cases() {
            let base = schedule_peak(graph, state, &UnitCost).unwrap();
            let sweep = PeakSweep::new(graph, &UnitCost, state);
            let mut sc = RelocationScorer::new(graph, state, &UnitCost);
            let mut events = PeakEvents::default();
            let mut peaks = Vec::new();
            for mv in schedule_relocations(graph, state, *cross_lane, None) {
                let (batch, len) = mv.batch();
                let want = schedule_peak(graph, &mv.apply(state), &UnitCost).ok();
                let swept = sc
                    .de
                    .probe_with(&batch[..len], |de, _| {
                        sweep.peak(|v| de.span_at(v), &mut events)
                    })
                    .ok();
                let at = mv.describe(state);
                assert_eq!(swept, want, "{at}");
                peaks.extend(want);
            }
            assert!(
                peaks.iter().any(|&p| p != base),
                "every relocation keeps the peak"
            );
        }
    }

    /// Op-level gpipe and pipe2 at 8×4 (relocated in-lane, as the pipeline
    /// space moves them) and the strategy zoo's multi-region schedule of 8
    /// layers under unit cost (cross-lane and block moves too; a partial
    /// schedule, so weight gradients are retained), each with whether its
    /// relocations cross lanes.
    fn relocation_cases() -> Vec<(TrainGraph, Schedule, bool)> {
        use ooo_core::multi_region::{
            backward_regions, multi_region_joint_schedule, ConstantProfile,
        };
        use ooo_core::pipeline::{op_level_schedule, Strategy};
        let mut cases: Vec<(TrainGraph, Schedule, bool)> = [Strategy::GPipe, Strategy::OooPipe2]
            .into_iter()
            .map(|s| {
                let (graph, schedule) = op_level_schedule(8, 4, s, 1);
                (graph, schedule, false)
            })
            .collect();
        let graph = TrainGraph::single_gpu(8);
        let (regions, subs) = backward_regions(&graph, &UnitCost, 2);
        let profile = ConstantProfile {
            speedup: 1.3,
            sub_time: 1,
        };
        let plan = multi_region_joint_schedule(&graph, &regions, &subs, &profile).unwrap();
        cases.push((graph, plan.to_schedule(&regions), true));
        cases
    }

    /// Dropping a relocation unprobed never changes a score: on every
    /// relocation case, uncapped and under every cap from below the
    /// carried-in floor through the peaks, and at cutoffs around the
    /// incumbent's score, [`score_relocation`] equals [`capped_below`] of
    /// the materialized candidate's makespan and ledger peak, and
    /// [`bound_relocation`] is a floor at most that score (penalty
    /// included) or no bound only where there is no score. Some
    /// relocations are dropped,
    /// and under a cap below the floor exactly those are dropped that
    /// the uncapped search drops at the incumbent's raw makespan: the
    /// penalty every relocated state pays comes off the cutoff first.
    #[test]
    fn pruned_relocation_scores_equal_the_unpruned_probe() {
        let mut dropped = 0;
        for (graph, state, cross_lane) in &relocation_cases() {
            let base = ledger_of_schedule(graph, state, &UnitCost).unwrap();
            let raw = predict_makespan(graph, state, &UnitCost)
                .unwrap()
                .makespan();
            let caps = (base.initial - 1..=base.peak + 2).map(Some);
            let mut sc = RelocationScorer::new(graph, state, &UnitCost);
            let moves = schedule_relocations(graph, state, *cross_lane, None);
            let materialized: Vec<Option<(SimTime, u64)>> = (moves.iter())
                .map(|mv| {
                    let s = mv.apply(state);
                    let m = predict_makespan(graph, &s, &UnitCost).ok()?.makespan();
                    Some((m, schedule_peak(graph, &s, &UnitCost).ok()?))
                })
                .collect();
            fn pruned_at(
                sc: &mut RelocationScorer<'_>,
                moves: &[Relocation],
                cutoff: SimTime,
                cap: Option<&MemoryCap>,
            ) -> usize {
                let mut dropped = |mv: &&Relocation| {
                    let (batch, len) = mv.batch();
                    cannot_rank(&mut sc.de, &batch[..len], cutoff, cap)
                };
                moves.iter().filter(&mut dropped).count()
            }
            let uncapped = pruned_at(&mut sc, &moves, raw, None);
            dropped += uncapped;
            for bytes in std::iter::once(None).chain(caps) {
                let (cap, inc) =
                    MemoryCap::of_baseline(graph, &UnitCost, state, bytes, raw).unwrap();
                let cap = cap.as_ref();
                if bytes.is_some_and(|b| b < base.initial) {
                    assert_eq!(raw_cutoff(inc, cap), raw, "cap {bytes:?}");
                    assert_eq!(
                        pruned_at(&mut sc, &moves, inc, cap),
                        uncapped,
                        "cap {bytes:?}"
                    );
                }
                for cutoff in [inc - 1, inc, inc + 1, SimTime::MAX] {
                    for (mv, want) in moves.iter().zip(&materialized) {
                        let want =
                            want.and_then(|(m, p)| capped_below(m, cutoff, bytes, || Some(p)));
                        let at =
                            || format!("cap {bytes:?} cutoff {cutoff}: {}", mv.describe(state));
                        assert_eq!(score_relocation(cap, &mut sc, mv, cutoff), want, "{}", at());
                        // The bound is a floor on the score, and none
                        // only when there is no score.
                        match bound_relocation(cap, &mut sc, mv, cutoff) {
                            Some(Bound::Floor(f)) => {
                                assert!(want.is_none_or(|m| f <= m), "floor {f}: {}", at())
                            }
                            bound => assert_eq!((bound, want), (None, None), "{}", at()),
                        }
                    }
                }
            }
        }
        assert!(dropped > 0, "no relocation is dropped");
    }

    /// [`DeltaEval::certainly_deadlocks`], the pre-probe deadlock check,
    /// on every relocation of the relocation cases and of GPipe 8×4 and
    /// OOO-Pipe2 16×4 under a window: a flagged relocation probes to a
    /// [`ooo_core::Error::DependencyViolation`] (soundness), and every
    /// relocation whose probe deadlocks is flagged (completeness on these
    /// spaces: single moves and `[dW_i, U_i]` blocks, in-lane and across
    /// lanes). Some relocations are flagged.
    #[test]
    fn certain_deadlocks_are_exactly_the_deadlocking_relocations() {
        use ooo_core::pipeline::{op_level_schedule, Strategy};
        let mut cases: Vec<_> = relocation_cases()
            .into_iter()
            .map(|(graph, state, cross_lane)| (graph, state, cross_lane, None))
            .collect();
        for (layers, strategy, window) in [(8, Strategy::GPipe, 3), (16, Strategy::OooPipe2, 4)] {
            let (graph, state) = op_level_schedule(layers, 4, strategy, 1);
            cases.push((graph, state, false, Some(window)));
        }
        let mut flagged = 0;
        for (graph, state, cross_lane, window) in &cases {
            let mut de = DeltaEval::new(graph, state, &UnitCost).unwrap();
            for mv in schedule_relocations(graph, state, *cross_lane, *window) {
                let (batch, len) = mv.batch();
                let certain = de.certainly_deadlocks(&batch[..len]);
                let probed = de.probe(&batch[..len]);
                let deadlocks = matches!(probed, Err(ooo_core::Error::DependencyViolation { .. }));
                assert_eq!(certain, deadlocks, "{}: {probed:?}", mv.describe(state));
                flagged += usize::from(certain);
            }
        }
        assert!(flagged > 0, "no relocation is flagged");
    }

    /// A cap equal to the carried-in floor is met by every state whose
    /// peak sits on the floor: with no gradient bytes only the carried-in
    /// activations are ever resident, so the capped search is the
    /// uncapped one, move for move.
    #[test]
    fn cap_at_the_floor_is_met_when_peaks_sit_on_it() {
        use ooo_core::cost::{LayerCost, TableCost};
        use ooo_core::datapar::CommPolicy;
        let l = 8;
        let graph = TrainGraph::data_parallel(l);
        let cost = TableCost::uniform(
            l,
            LayerCost {
                sync_weight: 3,
                out_grad_bytes: 0,
                weight_bytes: 0,
                ..LayerCost::default()
            },
        );
        let base =
            ooo_core::reverse_k::reverse_first_k(&graph, 0, None::<(u64, &TableCost)>).unwrap();
        let realized = ooo_verify::predict::datapar_schedule(
            &graph,
            &base,
            &cost,
            CommPolicy::PriorityByLayer,
        )
        .unwrap();
        let floor = ledger_of_schedule(&graph, &realized, &cost)
            .unwrap()
            .initial;
        let tune = |memory_cap| {
            let opts = TuneOptions {
                memory_cap,
                ..TuneOptions::default()
            };
            let (policy, family) = (CommPolicy::PriorityByLayer, order::KFamily::None);
            order::tune_backward_order(&graph, &base, Some(0), &cost, policy, family, &opts)
                .unwrap()
        };
        let (plain, capped) = (tune(None), tune(Some(floor)));
        assert!(!plain.moves.is_empty(), "the order must tune");
        assert_eq!(capped.peak, Some(floor));
        assert_eq!(plain.order, capped.order);
        let trajectory = |t: &order::TunedOrder| -> Vec<String> {
            t.moves.iter().map(|m| m.description.clone()).collect()
        };
        assert_eq!(trajectory(&plain), trajectory(&capped));
    }

    /// A slack memory cap adds ledger checks to scoring but must not
    /// change the search: same enumerator, same scores, same
    /// `(score, enumeration index)` tie-breaks — byte-identical winner.
    #[test]
    fn slack_memory_cap_is_trajectory_invariant() {
        let (graph, baseline) = lazy_two_lane(6);
        let plain = tune_schedule(&graph, &baseline, &UnitCost, &TuneOptions::default()).unwrap();
        let capped = tune_schedule(
            &graph,
            &baseline,
            &UnitCost,
            &TuneOptions {
                memory_cap: Some(u64::MAX),
                ..TuneOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plain.schedule, capped.schedule);
        assert_eq!(plain.predicted, capped.predicted);
        assert_eq!(
            plain
                .moves
                .iter()
                .map(|m| m.description.clone())
                .collect::<Vec<_>>(),
            capped
                .moves
                .iter()
                .map(|m| m.description.clone())
                .collect::<Vec<_>>()
        );
    }
}
