//! Verdict-producing checkers.
//!
//! The paper's monitor *detects* scenarios (accepting runs). An
//! assertion-based verification flow (Fig 4) additionally needs
//! *verdicts* — "Verified / Failed". [`Checker`] wraps a detector with
//! verdict bookkeeping, and [`ImplicationChecker`] gives the
//! `implication` construct its checking semantics: every time the
//! antecedent scenario completes, the consequent scenario must follow
//! immediately; a consequent that fails to advance is a violation.

use std::fmt;

use cesc_expr::Valuation;

use crate::monitor::{Monitor, MonitorExec, StateId, TransitionKind};

/// The running verdict of a checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No obligation outstanding, nothing violated yet.
    Idle,
    /// At least one obligation is being tracked.
    Tracking,
    /// All observed obligations were fulfilled (and none violated).
    Passed,
    /// At least one obligation was violated.
    Failed,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Idle => "idle",
            Verdict::Tracking => "tracking",
            Verdict::Passed => "passed",
            Verdict::Failed => "failed",
        };
        f.write_str(s)
    }
}

/// A violation record: an antecedent occurrence whose consequent did not
/// follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Tick at which the antecedent completed.
    pub antecedent_at: u64,
    /// Tick at which the consequent failed to advance.
    pub failed_at: u64,
    /// How many consequent ticks had matched before the failure.
    pub progress: usize,
}

/// Checker for `implies(antecedent, consequent)`.
///
/// Each completion of the antecedent scenario spawns an obligation: a
/// fresh executor of the consequent monitor that must take *forward*
/// transitions on every subsequent tick until it reaches its final
/// state. Any backward transition before completion is a violation
/// (recorded, with the obligation dropped). Overlapping obligations are
/// tracked independently.
///
/// # Examples
///
/// ```
/// use cesc_chart::parse_document;
/// use cesc_core::{synthesize, ImplicationChecker, SynthOptions, Verdict};
/// use cesc_expr::Valuation;
///
/// let doc = parse_document(r#"
///     scesc req on clk { instances { M } events { r } tick { M: r } }
///     scesc rsp on clk { instances { M } events { s } tick { M: s } }
/// "#).unwrap();
/// let opts = SynthOptions::default();
/// let ante = synthesize(doc.chart("req").unwrap(), &opts)?;
/// let cons = synthesize(doc.chart("rsp").unwrap(), &opts)?;
/// let mut chk = ImplicationChecker::new(ante, cons);
///
/// let r = doc.alphabet.lookup("r").unwrap();
/// let s = doc.alphabet.lookup("s").unwrap();
/// chk.step(Valuation::of([r])); // antecedent observed
/// chk.step(Valuation::of([s])); // consequent follows
/// assert_eq!(chk.verdict(), Verdict::Passed);
/// # Ok::<(), cesc_core::SynthError>(())
/// ```
#[derive(Debug)]
pub struct ImplicationChecker {
    antecedent: Monitor,
    consequent: Monitor,
    // self-referential borrows are avoided by keeping executors' monitor
    // references inside per-step scopes; instead we store plain state
    antecedent_state: StateId,
    obligations: Vec<(StateId, u64)>, // (consequent state, antecedent tick)
    violations: Vec<Violation>,
    /// Lifetime violation count — survives [`ImplicationChecker::take_violations`],
    /// so the verdict stays `Failed` after records are drained.
    violation_count: u64,
    fulfilled: u64,
    tick: u64,
}

impl ImplicationChecker {
    /// Builds a checker from the two synthesized monitors.
    pub fn new(antecedent: Monitor, consequent: Monitor) -> Self {
        let init = antecedent.initial();
        ImplicationChecker {
            antecedent,
            consequent,
            antecedent_state: init,
            obligations: Vec::new(),
            violations: Vec::new(),
            violation_count: 0,
            fulfilled: 0,
            tick: 0,
        }
    }

    /// The antecedent monitor.
    pub fn antecedent(&self) -> &Monitor {
        &self.antecedent
    }

    /// The consequent monitor.
    pub fn consequent(&self) -> &Monitor {
        &self.consequent
    }

    /// Consumes one trace element; returns the verdict after the tick.
    pub fn step(&mut self, v: Valuation) -> Verdict {
        // 1. advance outstanding obligations (consequent started the
        //    tick *after* the antecedent completed), in place so the
        //    vector keeps its capacity across ticks
        self.obligations.retain_mut(|(state, started)| {
            match step_forward_only(&self.consequent, *state, v) {
                ForwardStep::Advanced(next) if next == self.consequent.final_state() => {
                    self.fulfilled += 1;
                    false
                }
                ForwardStep::Advanced(next) => {
                    *state = next;
                    true
                }
                ForwardStep::Stuck => {
                    self.violation_count += 1;
                    self.violations.push(Violation {
                        antecedent_at: *started,
                        failed_at: self.tick,
                        progress: state.index(),
                    });
                    false
                }
            }
        });

        // 2. advance the antecedent detector
        let out = step_detector(&self.antecedent, self.antecedent_state, v);
        self.antecedent_state = out;
        if out == self.antecedent.final_state() {
            self.obligations
                .push((self.consequent.initial(), self.tick));
        }

        self.tick += 1;
        self.verdict()
    }

    /// Runs the checker over a whole trace.
    pub fn scan(&mut self, trace: impl IntoIterator<Item = Valuation>) -> Verdict {
        let mut last = self.verdict();
        for v in trace {
            last = self.step(v);
        }
        last
    }

    /// The current verdict.
    pub fn verdict(&self) -> Verdict {
        if self.violation_count > 0 {
            Verdict::Failed
        } else if !self.obligations.is_empty() {
            Verdict::Tracking
        } else if self.fulfilled > 0 {
            Verdict::Passed
        } else {
            Verdict::Idle
        }
    }

    /// Violations recorded and not yet drained by
    /// [`ImplicationChecker::take_violations`].
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Lifetime violation count (not reduced by
    /// [`ImplicationChecker::take_violations`]).
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// Hands over the violations recorded since the last drain,
    /// leaving the checker's log empty — a non-compliant bulk trace
    /// otherwise accumulates one record per failing obligation, and
    /// streaming callers (`cesc-par`'s shard workers) must keep their
    /// residency bounded. The verdict and
    /// [`ImplicationChecker::violation_count`] are unaffected.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Number of fulfilled obligations.
    pub fn fulfilled(&self) -> u64 {
        self.fulfilled
    }

    /// Number of obligations still being tracked.
    pub fn outstanding(&self) -> usize {
        self.obligations.len()
    }
}

enum ForwardStep {
    Advanced(StateId),
    Stuck,
}

/// Steps a consequent obligation: only the forward transition counts;
/// anything else is a violation. Scoreboard-free evaluation (obligations
/// are windows of pure pattern elements).
fn step_forward_only(m: &Monitor, state: StateId, v: Valuation) -> ForwardStep {
    for t in m.transitions_from(state) {
        if t.kind == TransitionKind::Forward
            && t.guard
                .eval(v, &cesc_expr::EmptyScoreboard)
        {
            return ForwardStep::Advanced(t.target);
        }
    }
    ForwardStep::Stuck
}

/// Steps a detector without scoreboard state (used for the antecedent;
/// antecedent-internal causality is enforced by its own guards only when
/// scoreboard-backed — the checker runs it scoreboard-free and therefore
/// treats `Chk_evt` as false, which pure antecedents never contain).
fn step_detector(m: &Monitor, state: StateId, v: Valuation) -> StateId {
    for t in m.transitions_from(state) {
        if t.guard.eval(v, &cesc_expr::EmptyScoreboard) {
            return t.target;
        }
    }
    m.initial()
}

/// Simple pass/fail wrapper around a scenario detector: verdict is
/// `Passed` once the scenario has been observed at least `required`
/// times by the end of the trace.
#[derive(Debug)]
pub struct Checker<'m> {
    exec: MonitorExec<'m>,
    required: u64,
}

impl<'m> Checker<'m> {
    /// Builds a checker requiring at least one occurrence.
    pub fn new(monitor: &'m Monitor) -> Self {
        Self::requiring(monitor, 1)
    }

    /// Builds a checker requiring at least `required` occurrences.
    pub fn requiring(monitor: &'m Monitor, required: u64) -> Self {
        Checker {
            exec: MonitorExec::new(monitor),
            required,
        }
    }

    /// Consumes one element.
    pub fn step(&mut self, v: Valuation) {
        self.exec.step(v);
    }

    /// Occurrences observed so far.
    pub fn observed(&self) -> u64 {
        self.exec.match_count()
    }

    /// The verdict so far: `Passed` once enough occurrences were seen,
    /// `Tracking` while the monitor has partial progress, `Idle`
    /// otherwise.
    pub fn verdict(&self) -> Verdict {
        if self.exec.match_count() >= self.required {
            Verdict::Passed
        } else if self.exec.state().index() > 0 {
            Verdict::Tracking
        } else {
            Verdict::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthOptions};
    use cesc_chart::parse_document;

    fn two_charts() -> (cesc_chart::Document, Monitor, Monitor) {
        let doc = parse_document(
            r#"
            scesc req on clk { instances { M } events { r, go } tick { M: r } tick { M: go } }
            scesc rsp on clk { instances { M } events { s, done } tick { M: s } tick { M: done } }
        "#,
        )
        .unwrap();
        let opts = SynthOptions::default();
        let a = synthesize(doc.chart("req").unwrap(), &opts).unwrap();
        let b = synthesize(doc.chart("rsp").unwrap(), &opts).unwrap();
        (doc, a, b)
    }

    fn v(doc: &cesc_chart::Document, names: &[&str]) -> Valuation {
        Valuation::of(names.iter().map(|n| doc.alphabet.lookup(n).unwrap()))
    }

    #[test]
    fn fulfilled_obligation_passes() {
        let (doc, a, b) = two_charts();
        let mut chk = ImplicationChecker::new(a, b);
        chk.step(v(&doc, &["r"]));
        chk.step(v(&doc, &["go"])); // antecedent completes
        assert_eq!(chk.verdict(), Verdict::Tracking);
        chk.step(v(&doc, &["s"]));
        let verdict = chk.step(v(&doc, &["done"]));
        assert_eq!(verdict, Verdict::Passed);
        assert_eq!(chk.fulfilled(), 1);
        assert!(chk.violations().is_empty());
    }

    #[test]
    fn broken_consequent_fails() {
        let (doc, a, b) = two_charts();
        let mut chk = ImplicationChecker::new(a, b);
        chk.step(v(&doc, &["r"]));
        chk.step(v(&doc, &["go"]));
        chk.step(v(&doc, &["s"]));
        let verdict = chk.step(v(&doc, &[])); // `done` missing
        assert_eq!(verdict, Verdict::Failed);
        let viol = chk.violations()[0];
        assert_eq!(viol.antecedent_at, 1);
        assert_eq!(viol.failed_at, 3);
        assert_eq!(viol.progress, 1);
    }

    #[test]
    fn overlapping_obligations_tracked_independently() {
        let (doc, a, b) = two_charts();
        let mut chk = ImplicationChecker::new(a, b);
        // antecedent completes at ticks 1 and 3; consequents interleave
        chk.step(v(&doc, &["r"]));
        chk.step(v(&doc, &["go"]));
        chk.step(v(&doc, &["r", "s"]));
        chk.step(v(&doc, &["go", "done"])); // first obligation fulfilled
        assert_eq!(chk.fulfilled(), 1);
        assert_eq!(chk.outstanding(), 1);
        chk.step(v(&doc, &["s"]));
        chk.step(v(&doc, &["done"]));
        assert_eq!(chk.fulfilled(), 2);
        assert_eq!(chk.verdict(), Verdict::Passed);
    }

    #[test]
    fn no_antecedent_stays_idle() {
        let (doc, a, b) = two_charts();
        let mut chk = ImplicationChecker::new(a, b);
        let verdict = chk.scan(vec![v(&doc, &[]); 10]);
        assert_eq!(verdict, Verdict::Idle);
    }

    #[test]
    fn simple_checker_verdicts() {
        let (doc, a, _) = two_charts();
        let mut chk = Checker::new(&a);
        assert_eq!(chk.verdict(), Verdict::Idle);
        chk.step(v(&doc, &["r"]));
        assert_eq!(chk.verdict(), Verdict::Tracking);
        chk.step(v(&doc, &["go"]));
        assert_eq!(chk.verdict(), Verdict::Passed);
        assert_eq!(chk.observed(), 1);
    }

    #[test]
    fn requiring_multiple_occurrences() {
        let (doc, a, _) = two_charts();
        let mut chk = Checker::requiring(&a, 2);
        chk.step(v(&doc, &["r"]));
        chk.step(v(&doc, &["go"]));
        assert_ne!(chk.verdict(), Verdict::Passed);
        chk.step(v(&doc, &["r"]));
        chk.step(v(&doc, &["go"]));
        assert_eq!(chk.verdict(), Verdict::Passed);
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Idle.to_string(), "idle");
        assert_eq!(Verdict::Failed.to_string(), "failed");
    }
}
