//! Bounded deterministic fuzz campaigns: generate → cross-check →
//! minimize → record.
//!
//! A campaign is a pure function of its [`CampaignConfig`]: the same
//! seed and case budget replay the same cases in the same order, which
//! is what lets `make verify-fuzz` run in CI as an ordinary
//! deterministic gate. Discrepancies are shrunk by a bounded
//! delta-debugging loop and handed back as corpus entries ready to
//! check in under `tests/corpus/`.

use std::fmt;

use cesc_spec::SpecSet;
use cesc_trace::Trace;
use rand::Rng;

use crate::corpus::{encode_differential, CorpusEntry, CorpusKind};
use crate::gen::SpecGen;
use crate::oracle::{self, total, CaseInput, Discrepancy, MultiCaseInput};
use crate::traces;

/// Campaign shape: seed, case budget, stimulus size, where to write
/// minimized failures.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every generated artifact derives from it.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: usize,
    /// Stimulus trace length per case.
    pub trace_len: usize,
    /// Directory to write minimized failure entries into (`None`
    /// keeps them only in the report).
    pub corpus_out: Option<std::path::PathBuf>,
    /// Observability registry: per-stage spans (`fuzz.differential`,
    /// `fuzz.parser-sweep`, `fuzz.vcd-sweep`) and the `fuzz.*` tallies
    /// accumulate here. Disabled (no-op) by default.
    pub obs: cesc_obs::Obs,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xCE5C_F022,
            cases: 300,
            trace_len: 96,
            corpus_out: None,
            obs: cesc_obs::Obs::disabled(),
        }
    }
}

/// One recorded campaign failure: where it happened, what disagreed,
/// and the minimized reproducer.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Case index within the campaign.
    pub case: usize,
    /// The verdict disagreement.
    pub discrepancy: Discrepancy,
    /// The minimized, checked-in-able reproducer.
    pub entry: CorpusEntry,
}

/// Aggregate campaign result.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Cases executed.
    pub cases: usize,
    /// Documents rejected by parse/synthesis (errors, not failures).
    pub rejected: usize,
    /// Chart targets whose four legs agreed.
    pub charts_checked: usize,
    /// Assert compositions checked serial-vs-sharded.
    pub asserts_checked: usize,
    /// Asserts whose static proof agreed with the dynamic checker.
    pub proofs_checked: usize,
    /// Multiclock specs checked serial-vs-sharded.
    pub multis_checked: usize,
    /// Total scenario completions observed (sanity: stimuli reach
    /// accept states, the campaign is not idling in reset).
    pub matches: u64,
    /// Minimized verdict disagreements (empty on a green run).
    pub failures: Vec<Failure>,
}

impl CampaignReport {
    /// True when no leg disagreed anywhere.
    pub fn is_green(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "differential: {} cases ({} rejected), {} charts + {} asserts + {} multiclock \
             targets agreed, {} proofs cross-checked, {} matches observed",
            self.cases,
            self.rejected,
            self.charts_checked,
            self.asserts_checked,
            self.multis_checked,
            self.proofs_checked,
            self.matches
        )?;
        for fl in &self.failures {
            writeln!(f, "  FAILURE case {}: {}", fl.case, fl.discrepancy)?;
        }
        Ok(())
    }
}

/// The differential campaign: every case cross-checks baseline
/// engine, optimized engine, sharded fleet and RTL interpreter on one
/// generated `(spec × trace × chunking × jobs)` point.
///
/// Case sources rotate through three families: freshly generated
/// documents (the bulk), the exact-64/65-symbol `GuardMask64`
/// boundary charts, and the AXI4-Lite/APB/Wishbone bus libraries.
pub fn run_differential(cfg: &CampaignConfig) -> CampaignReport {
    let _span = cfg.obs.span("fuzz.differential");
    let mut g = SpecGen::new(cfg.seed);
    let mut report = CampaignReport::default();
    let bus_src = cesc_protocols::bus_library_src();

    for case in 0..cfg.cases {
        report.cases += 1;
        // rotate the case family: mostly generated, with the boundary
        // charts and the bus libraries recurring on fixed strides
        let mut gen_doc = None;
        let source = if case % 16 == 7 {
            SpecGen::wide_doc(if case % 32 == 7 { 64 } else { 65 })
        } else if case % 8 == 3 {
            bus_src.clone()
        } else {
            let doc = g.document();
            let source = doc.source.clone();
            gen_doc = Some(doc);
            source
        };

        let trace = match SpecSet::load(&source) {
            Ok(set) => traces::stimulus_trace(g.rng(), &set, cfg.trace_len),
            Err(_) => traces::random_trace(g.rng(), 8, cfg.trace_len),
        };
        let chunk = traces::chunking(g.rng(), trace.len());
        let jobs = traces::jobs(g.rng());
        let input = CaseInput {
            source,
            trace,
            chunk,
            jobs,
        };
        match oracle::run_case(&input) {
            Ok(r) => {
                if r.rejected {
                    report.rejected += 1;
                }
                report.charts_checked += r.charts_checked;
                report.asserts_checked += r.asserts_checked;
                report.proofs_checked += r.proofs_checked;
                report.matches += r.matches;
            }
            Err(d) => record_failure(cfg, &mut report, case, *d, input),
        }

        if let Some(doc) = gen_doc.filter(|d| d.multiclock.is_some()) {
            let (mc_report, mc_failure) = multiclock_case(cfg, &mut g, case, &doc);
            report.rejected += usize::from(mc_report.rejected);
            report.multis_checked += mc_report.charts_checked;
            report.matches += mc_report.matches;
            if let Some((d, entry)) = mc_failure {
                report.failures.push(Failure {
                    case,
                    discrepancy: d,
                    entry,
                });
            }
        }
    }
    if let (Some(dir), false) = (&cfg.corpus_out, report.failures.is_empty()) {
        for fl in &report.failures {
            let _ = crate::corpus::write_entry(dir, &fl.entry);
        }
    }
    cfg.obs.counter(cesc_obs::key::FUZZ_CASES).add(report.cases as u64);
    cfg.obs.counter(cesc_obs::key::FUZZ_REJECTED).add(report.rejected as u64);
    cfg.obs
        .counter(cesc_obs::key::FUZZ_DISCREPANCIES)
        .add(report.failures.len() as u64);
    cfg.obs.counter(cesc_obs::key::FUZZ_MATCHES).add(report.matches);
    report
}

fn multiclock_case(
    cfg: &CampaignConfig,
    g: &mut SpecGen,
    case: usize,
    doc: &crate::gen::GeneratedDoc,
) -> (oracle::CaseReport, Option<(Discrepancy, CorpusEntry)>) {
    let Ok(set) = SpecSet::load(&doc.source) else {
        let r = oracle::CaseReport {
            rejected: true,
            ..Default::default()
        };
        return (r, None);
    };
    let horizon: u64 = g.rng().random_range(6..=30u64);
    let mut domains = Vec::new();
    for c in doc.charts.iter().take(2) {
        let period: u64 = g.rng().random_range(1..=3u64);
        let phase: u64 = g.rng().random_range(0..period);
        // ticks at phase, phase+period, ... strictly below the horizon
        let len = if horizon <= phase {
            0
        } else {
            (horizon - phase).div_ceil(period)
        } as usize;
        let trace = traces::stimulus_trace(g.rng(), &set, len.max(1));
        domains.push((c.clock.clone(), period, phase, trace));
    }
    let input = MultiCaseInput {
        source: doc.source.clone(),
        domains,
        chunk: traces::chunking(g.rng(), horizon as usize),
        jobs: traces::jobs(g.rng()),
    };
    match oracle::run_multiclock_case(&input) {
        Ok(r) => (r, None),
        Err(d) => {
            let entry = CorpusEntry {
                name: format!("diff-mc-{:x}-{case}", cfg.seed),
                kind: CorpusKind::Differential,
                bytes: input.source.into_bytes(),
            };
            (oracle::CaseReport::default(), Some((*d, entry)))
        }
    }
}

fn record_failure(
    cfg: &CampaignConfig,
    report: &mut CampaignReport,
    case: usize,
    d: Discrepancy,
    input: CaseInput,
) {
    let minimized = minimize(input);
    let entry = CorpusEntry {
        name: format!("diff-{}-{:x}-{case}", d.stage, cfg.seed),
        kind: CorpusKind::Differential,
        bytes: encode_differential(&minimized, &d.to_string()),
    };
    report.failures.push(Failure {
        case,
        discrepancy: d,
        entry,
    });
}

/// Bounded delta-debugging: shrink the trace, then the source, while
/// the case keeps failing. The budget caps total oracle re-runs so a
/// pathological case cannot stall a campaign.
pub fn minimize(input: CaseInput) -> CaseInput {
    let mut budget = 250usize;
    let fails = |i: &CaseInput, budget: &mut usize| -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        oracle::run_case(i).is_err()
    };
    if !fails(&input, &mut budget) {
        return input; // flaky or budget-starved: keep as-is
    }
    let mut cur = input;

    // phase 1: remove trace spans, halving granularity
    let mut gran = (cur.trace.len() / 2).max(1);
    loop {
        let mut improved = false;
        let mut start = 0usize;
        while start < cur.trace.len() {
            let end = (start + gran).min(cur.trace.len());
            let candidate: Vec<_> = cur
                .trace
                .iter()
                .enumerate()
                .filter(|(i, _)| *i < start || *i >= end)
                .map(|(_, v)| v)
                .collect();
            let cand = CaseInput {
                trace: Trace::from_elements(candidate),
                ..cur.clone()
            };
            if fails(&cand, &mut budget) {
                cur = cand;
                improved = true;
            } else {
                start = end;
            }
        }
        if gran == 1 && !improved {
            break;
        }
        if !improved {
            gran = (gran / 2).max(1);
        }
        if budget == 0 {
            break;
        }
    }

    // phase 2: drop source lines
    let mut li = 0usize;
    loop {
        let lines: Vec<&str> = cur.source.lines().collect();
        if li >= lines.len() || budget == 0 {
            break;
        }
        let shorter: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != li)
            .map(|(_, l)| *l)
            .collect::<Vec<_>>()
            .join("\n");
        let cand = CaseInput {
            source: shorter,
            ..cur.clone()
        };
        if fails(&cand, &mut budget) {
            cur = cand; // same index now names the next line
        } else {
            li += 1;
        }
    }
    cur
}

/// Result of a panic-freedom sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Inputs driven.
    pub cases: usize,
    /// Panic payloads caught (must be empty: parsers and readers
    /// reject with errors, never panics).
    pub panics: Vec<String>,
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sweep: {} inputs, {} panics", self.cases, self.panics.len())?;
        for p in &self.panics {
            writeln!(f, "  PANIC: {p}")?;
        }
        Ok(())
    }
}

/// Panic-freedom sweep over the chart and expression parsers: raw
/// hostile bytes, mutated valid documents, and token-soup guard
/// expressions.
pub fn run_parser_sweep(cfg: &CampaignConfig) -> SweepReport {
    let _span = cfg.obs.span("fuzz.parser-sweep");
    let mut g = SpecGen::new(cfg.seed ^ 0x09A5_CA11);
    let mut report = SweepReport::default();
    for case in 0..cfg.cases {
        let inputs: Vec<Vec<u8>> = match case % 3 {
            0 => vec![g.hostile_bytes(512)],
            1 => {
                let doc = g.document();
                vec![g.mutate_source(&doc.source), g.mutate_source(&doc.source)]
            }
            _ => vec![g.mutate_source(&SpecGen::wide_doc(64))],
        };
        for bytes in inputs {
            report.cases += 1;
            if let Err(p) = total::chart_parser(&bytes) {
                report.panics.push(format!("chart parser: {p}"));
            }
        }
        report.cases += 1;
        let e = g.expr_input();
        if let Err(p) = total::expr_parser(&e) {
            report.panics.push(format!("expr parser on {e:?}: {p}"));
        }
    }
    cfg.obs.counter(cesc_obs::key::FUZZ_CASES).add(report.cases as u64);
    report
}

/// Panic-freedom sweep over the streaming VCD reader: raw hostile
/// bytes and mutated well-formed dumps.
pub fn run_vcd_sweep(cfg: &CampaignConfig) -> SweepReport {
    let _span = cfg.obs.span("fuzz.vcd-sweep");
    let mut g = SpecGen::new(cfg.seed ^ 0x7CD_5EED);
    let mut report = SweepReport::default();
    let seed_set = SpecSet::load(
        "scesc hs on clk { instances { M, S } events { e0, e1, e2, e3 } \
         tick { M: e0 } tick { S: e1 } cause e0 -> e1; }",
    )
    .expect("seed document is well-formed");
    for case in 0..cfg.cases {
        let bytes = if case % 2 == 0 {
            g.hostile_bytes(768)
        } else {
            let len = 2 + case % 17;
            let valid = traces::valid_vcd(g.rng(), &seed_set, "clk", len);
            g.mutate_source(&valid)
        };
        report.cases += 1;
        if let Err(p) = total::vcd_reader(&bytes) {
            report.panics.push(format!("vcd reader: {p}"));
        }
    }
    cfg.obs.counter(cesc_obs::key::FUZZ_CASES).add(report.cases as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic() {
        let cfg = CampaignConfig {
            cases: 24,
            ..Default::default()
        };
        let a = run_differential(&cfg);
        let b = run_differential(&cfg);
        assert_eq!(a.charts_checked, b.charts_checked);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.matches, b.matches);
        assert!(a.is_green(), "{a}");
    }

    #[test]
    fn campaign_exercises_accept_paths() {
        let cfg = CampaignConfig {
            cases: 32,
            ..Default::default()
        };
        let r = run_differential(&cfg);
        assert!(r.charts_checked > 0);
        assert!(r.matches > 0, "stimuli never completed a scenario: {r}");
    }

    #[test]
    fn sweeps_find_no_panics() {
        let cfg = CampaignConfig {
            cases: 40,
            ..Default::default()
        };
        let p = run_parser_sweep(&cfg);
        assert!(p.panics.is_empty(), "{p}");
        let v = run_vcd_sweep(&cfg);
        assert!(v.panics.is_empty(), "{v}");
    }

    #[test]
    fn minimizer_shrinks_a_synthetic_failure() {
        // a case that "fails" by construction is hard to fabricate
        // without a real bug, so exercise the budget/identity path: a
        // passing case must come back unchanged
        let src = "scesc hs on clk { instances { M } events { a } tick { M: a } }";
        let set = SpecSet::load(src).unwrap();
        let mut g = SpecGen::new(5);
        let trace = traces::stimulus_trace(g.rng(), &set, 16);
        let input = CaseInput {
            source: src.to_owned(),
            trace: trace.clone(),
            chunk: 4,
            jobs: 2,
        };
        let out = minimize(input);
        assert_eq!(out.trace.len(), trace.len());
        assert_eq!(out.source, src);
    }
}
