//! Seeded workload generators and the step-wise reference verdicts.
//!
//! Every workload is a `.cesc` spec plus a `.vcd` dump generated from
//! the seed alone: the same seed gives byte-identical files. The
//! reference result of every check target is computed here, from the
//! generated in-memory trace, with the step-wise executors of
//! `cesc-core` (`MonitorExec`, `MultiClockExec`, `ImplicationChecker`)
//! over the raw synthesized monitors — no VCD reader, no compiled
//! tables, no optimizer, no sharding.

use std::fmt::Write as _;

use cesc::core::{MonitorExec, ScoreboardOps, Verdict, Violation};
use cesc::expr::{Alphabet, Valuation};
use cesc::protocols::{bus_library_src, bus_scenarios, ocp, traffic};
use cesc::spec::{SpecSet, TargetRef};
use cesc::trace::{
    write_vcd, write_vcd_global_to, ClockDomain, ClockId, ClockSet, GlobalRun, GlobalStep,
    VcdWriteOptions,
};

/// One benchmark workload (see `README.md` for why each exists): its
/// name, the `--jobs` it checks with, and its generator.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// `--jobs` requested (clamped to the host's `nproc` at run time).
    pub jobs: usize,
    pub generate: fn(u64) -> Result<Generated, String>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ocp_burst_sparse",
        jobs: 1,
        generate: ocp_burst_sparse,
    },
    Workload {
        name: "bus_lib_3clk",
        jobs: 2,
        generate: bus_lib_3clk,
    },
    Workload {
        name: "fleet_dense_2clk",
        jobs: 1,
        generate: fleet_dense_2clk,
    },
];

pub fn workload(name: &str) -> Result<Workload, String> {
    WORKLOADS
        .iter()
        .copied()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        })
}

/// VCD half-period of every generated dump: global instant `t` is
/// sampled at VCD time `2 * t * HALF_PERIOD`.
const HALF_PERIOD: u64 = 5;

/// Match times kept at each end of a detection log — the check
/// report's `first` / `last` arrays (`cesc::cli::MATCH_EDGE`).
const EDGE: usize = cesc::cli::MATCH_EDGE;

/// Violation records the check report lists per assert target.
pub const VIOLATION_KEEP: usize = 100;

/// The expected result of one check target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// A basic chart (`kind == "chart"`) or multiclock spec
    /// (`kind == "multiclock"`): detections in VCD time.
    Detect {
        kind: &'static str,
        name: String,
        matches: u64,
        first: Vec<u64>,
        last: Vec<u64>,
        underflows: u64,
    },
    /// An `implies(...)` assertion.
    Assert {
        name: String,
        verdict: String,
        fulfilled: u64,
        violation_count: u64,
        /// `(antecedent_at, failed_at, progress)`, the first
        /// [`VIOLATION_KEEP`].
        violations: Vec<(u64, u64, u64)>,
    },
}

impl Expected {
    pub fn name(&self) -> &str {
        match self {
            Expected::Detect { name, .. } | Expected::Assert { name, .. } => name,
        }
    }
}

/// A generated workload: the spec text, the dump bytes, what the dump
/// holds and every target's reference result.
pub struct Generated {
    pub spec: String,
    pub vcd: Vec<u8>,
    /// VCD instants at which any clock ticked (`global_steps`).
    pub steps: u64,
    /// Per-clock samples over all clocks (`fleet.ticks`).
    pub samples: u64,
    pub reference: Vec<Expected>,
}

/// splitmix64: a small, fully specified generator, so a seed means the
/// same inputs on every host and toolchain.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// OCP burst read plus simple read on one clock: 20,000 compliant
/// 4-beat bursts, 96 idle ticks apart (2.04M ticks). The seed drives
/// sparse noise on `MCmd_rd`, the one simple-read symbol the burst
/// window never uses — it can never complete a simple read, so the
/// pinned counts (20,000 bursts, 0 simple reads) hold for every seed.
fn ocp_burst_sparse(seed: u64) -> Result<Generated, String> {
    let spec = format!("{}{}", ocp::BURST_READ_SRC, ocp::SIMPLE_READ_SRC);
    let specs = load(&spec)?;
    let alphabet = specs.alphabet();
    let window = ocp::burst_read_window(alphabet);
    let cfg = traffic::TrafficConfig {
        transactions: 20_000,
        gap: 96,
        noise_density: 0.01,
        seed,
    };
    let trace = traffic::transaction_stream(alphabet, &window, &cfg);
    let vcd = write_vcd(
        &trace,
        alphabet,
        &VcdWriteOptions {
            half_period: HALF_PERIOD,
            ..VcdWriteOptions::default()
        },
    )
    .into_bytes();

    // the single-clock dump as a one-domain global run, instant k = tick k
    let (clocks, clk) = ClockSet::single();
    let mut run = GlobalRun::new();
    for (k, v) in trace.iter().enumerate() {
        run.push(GlobalStep {
            time: k as u64,
            ticks: vec![(clk, v)],
        });
    }
    let reference = reference(&specs, &clocks, &run, |_| true)?;
    pin(&reference, "ocp_burst_read", 20_000)?;
    pin(&reference, "ocp_simple_read", 0)?;
    finish(spec, vcd, &run, reference)
}

/// The nine-chart AXI4-Lite / APB / Wishbone library plus its three
/// `implies` asserts, each bus on its own clock. Every bus cycles its
/// scenarios' canonical windows, separated by seeded idle gaps.
fn bus_lib_3clk(seed: u64) -> Result<Generated, String> {
    const STEPS: usize = 2_040_000;
    let spec = bus_library_src();
    let specs = load(&spec)?;
    let alphabet = specs.alphabet();

    let mut clocks = ClockSet::new();
    let buses: Vec<ClockId> = [("aclk", 2, 0), ("pclk", 3, 1), ("wb_clk", 5, 2)]
        .iter()
        .map(|&(name, period, phase)| clocks.add(ClockDomain::new(name, period, phase)))
        .collect();
    let mut owners = vec![Valuation::empty(); clocks.len()];
    let mut windows: Vec<Vec<Vec<Valuation>>> = vec![Vec::new(); clocks.len()];
    for s in bus_scenarios() {
        let c = clocks
            .lookup(s.clock)
            .ok_or("bus scenario on an unknown clock")?;
        let w = (s.window)(alphabet);
        for &v in &w {
            owners[c.index()] = owners[c.index()] | v;
        }
        windows[c.index()].push(w);
    }
    let mut sources: Vec<BusSource> = buses
        .iter()
        .map(|c| BusSource {
            windows: &windows[c.index()],
            rng: Rng::new(seed, c.index() as u64 + 1),
            scenario: 0,
            pos: 0,
            idle: 0,
        })
        .collect();

    let mut run = GlobalRun::new();
    for instant in clocks.schedule().take(STEPS) {
        let ticks = instant
            .ticking
            .iter()
            .map(|&c| (c, sources[c.index()].next()))
            .collect();
        run.push(GlobalStep {
            time: instant.time,
            ticks,
        });
    }
    let vcd = write_global(&run, &clocks, alphabet, &owners)?;
    let reference = reference(&specs, &clocks, &run, |_| true)?;
    finish(spec, vcd, &run, reference)
}

/// One bus's traffic: its scenarios' windows in turn, each followed by
/// 16..=64 idle cycles.
struct BusSource<'a> {
    windows: &'a [Vec<Valuation>],
    rng: Rng,
    scenario: usize,
    pos: usize,
    idle: u64,
}

impl BusSource<'_> {
    fn next(&mut self) -> Valuation {
        if self.idle > 0 {
            self.idle -= 1;
            return Valuation::empty();
        }
        let window = &self.windows[self.scenario];
        let v = window[self.pos];
        self.pos += 1;
        if self.pos == window.len() {
            self.pos = 0;
            self.scenario = (self.scenario + 1) % self.windows.len();
            self.idle = self.rng.range(16, 64);
        }
        v
    }
}

/// Replicas of the six-target fleet in `fleet_dense_2clk`.
const FLEET_REPLICAS: usize = 16;

/// The six-target fleet spec of `examples/fleet_obs_dump.rs` (four
/// basic charts, one multiclock spec, one assert) under the replica's
/// chart names; every replica watches the same `go` / `done` signals.
fn fleet_replica(k: usize) -> String {
    format!(
        "scesc m1_{k} on clk1 {{ instances {{ A }} events {{ go }} tick {{ A: go }} }}\n\
         scesc m2_{k} on clk2 {{ instances {{ B }} events {{ done }} tick {{ B: done }} }}\n\
         scesc ping_{k} on clk1 {{ instances {{ A }} events {{ go }} tick {{ A: go }} }}\n\
         scesc pong_{k} on clk1 {{ instances {{ A }} events {{ go }} tick {{ A: go }} }}\n\
         multiclock pair_{k} {{ charts {{ m1_{k}, m2_{k} }} cause go -> done; }}\n\
         cesc gate_{k} {{ implies(ping_{k}, pong_{k}) }}\n"
    )
}

/// Dense two-domain traffic: `go` holds on every `clk1` tick and
/// `done` on every `clk2` tick, so every tick of every member matches.
/// The seed decides, instant by instant, whether `clk1`, `clk2` or both
/// tick (500k global steps: a pass short enough that a run makes
/// dozens of them, see `segments`).
fn fleet_dense_2clk(seed: u64) -> Result<Generated, String> {
    const STEPS: u64 = 500_000;
    let spec: String = (0..FLEET_REPLICAS).map(fleet_replica).collect();
    let specs = load(&spec)?;
    let alphabet = specs.alphabet();
    let sym = |n: &str| {
        alphabet
            .lookup(n)
            .ok_or_else(|| format!("`{n}` not interned"))
    };
    let go = Valuation::of([sym("go")?]);
    let done = Valuation::of([sym("done")?]);

    let mut clocks = ClockSet::new();
    // the run is built instant by instant below; the periods only name
    // the domains for the writer and the executors
    let c1 = clocks.add(ClockDomain::new("clk1", 1, 0));
    let c2 = clocks.add(ClockDomain::new("clk2", 1, 0));
    let mut rng = Rng::new(seed, 0);
    let mut run = GlobalRun::new();
    for t in 0..STEPS {
        let ticks = match rng.next() % 3 {
            0 => vec![(c1, go)],
            1 => vec![(c2, done)],
            _ => vec![(c1, go), (c2, done)],
        };
        run.push(GlobalStep { time: t, ticks });
    }
    let vcd = write_global(&run, &clocks, alphabet, &[go, done])?;
    // the replicas are one fleet under new names: each is checked
    // against the step-wise reference of replica 0
    let base = reference(&specs, &clocks, &run, |name| name.ends_with("_0"))?;
    let mut reference = Vec::with_capacity(base.len() * FLEET_REPLICAS);
    for target in specs.checkable_targets() {
        let name = specs.target_name(target);
        let (stem, _) = name.rsplit_once('_').ok_or("replica names end in `_k`")?;
        let mut e = base
            .iter()
            .find(|e| e.name().rsplit_once('_').is_some_and(|(s, _)| s == stem))
            .ok_or_else(|| format!("no reference for `{name}`"))?
            .clone();
        match &mut e {
            Expected::Detect { name: n, .. } | Expected::Assert { name: n, .. } => {
                *n = name.to_owned();
            }
        }
        reference.push(e);
    }
    finish(spec, vcd, &run, reference)
}

fn load(spec: &str) -> Result<SpecSet, String> {
    SpecSet::load(spec).map_err(|e| format!("workload spec does not load: {e}"))
}

fn write_global(
    run: &GlobalRun,
    clocks: &ClockSet,
    alphabet: &Alphabet,
    owners: &[Valuation],
) -> Result<Vec<u8>, String> {
    let mut vcd = Vec::new();
    write_vcd_global_to(
        &mut vcd,
        run,
        clocks,
        alphabet,
        owners,
        &VcdWriteOptions {
            half_period: HALF_PERIOD,
            ..VcdWriteOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    Ok(vcd)
}

fn finish(
    spec: String,
    vcd: Vec<u8>,
    run: &GlobalRun,
    reference: Vec<Expected>,
) -> Result<Generated, String> {
    Ok(Generated {
        spec,
        vcd,
        steps: run.len() as u64,
        samples: run.iter().map(|s| s.ticks.len() as u64).sum(),
        reference,
    })
}

/// Fails generation when a target's reference count is not the pinned
/// one — the generator, not the checked program, would be wrong.
fn pin(reference: &[Expected], name: &str, matches: u64) -> Result<(), String> {
    match reference.iter().find(|e| e.name() == name) {
        Some(Expected::Detect { matches: got, .. }) if *got == matches => Ok(()),
        other => Err(format!(
            "reference for `{name}` should detect {matches} time(s), got {other:?}"
        )),
    }
}

/// Bounded detection log: count plus the first and last [`EDGE`] times.
struct Log {
    count: u64,
    first: Vec<u64>,
    last: std::collections::VecDeque<u64>,
}

impl Log {
    fn new() -> Self {
        Log {
            count: 0,
            first: Vec::new(),
            last: std::collections::VecDeque::new(),
        }
    }

    fn push(&mut self, time: u64) {
        self.count += 1;
        if self.first.len() < EDGE {
            self.first.push(time);
        }
        if self.last.len() == EDGE {
            self.last.pop_front();
        }
        self.last.push_back(time);
    }

    fn expected(self, kind: &'static str, name: &str, underflows: u64) -> Expected {
        Expected::Detect {
            kind,
            name: name.to_owned(),
            matches: self.count,
            first: self.first,
            last: self.last.into(),
            underflows,
        }
    }
}

/// Step-wise reference results of every checkable target of `specs`
/// whose name passes `keep`, over `run`, in
/// [`SpecSet::checkable_targets`] order.
fn reference(
    specs: &SpecSet,
    clocks: &ClockSet,
    run: &GlobalRun,
    keep: impl Fn(&str) -> bool,
) -> Result<Vec<Expected>, String> {
    let vcd_time = |t: u64| 2 * t * HALF_PERIOD;
    let clock_of = |name: &str| clocks.lookup(name);
    let mut out = Vec::new();
    for target in specs.checkable_targets() {
        let name = specs.target_name(target);
        if !keep(name) {
            continue;
        }
        let e = match target {
            TargetRef::Chart(i) => {
                let spec = specs.chart_spec(i).map_err(|e| e.to_string())?;
                let monitor = spec.synthesized();
                let clock = clock_of(monitor.clock());
                let mut exec = MonitorExec::new(monitor);
                let mut log = Log::new();
                for step in run.iter() {
                    for &(c, v) in &step.ticks {
                        if Some(c) == clock && exec.step(v).matched {
                            log.push(vcd_time(step.time));
                        }
                    }
                }
                log.expected("chart", name, exec.scoreboard().underflows())
            }
            TargetRef::Multi(i) => {
                let spec = specs.multi_spec(i).map_err(|e| e.to_string())?;
                let mut exec = spec.synthesized().executor();
                let mut log = Log::new();
                for step in run.iter() {
                    if exec.step_global(clocks, step) {
                        log.push(vcd_time(step.time));
                    }
                }
                log.expected("multiclock", name, exec.scoreboard().underflow_count())
            }
            TargetRef::Assert(i) => {
                let spec = specs.assert_spec(i).map_err(|e| e.to_string())?;
                let clock = clock_of(spec.clock());
                let mut checker = cesc::core::ImplicationChecker::new(
                    spec.synthesized_antecedent().clone(),
                    spec.synthesized_consequent().clone(),
                );
                for step in run.iter() {
                    for &(c, v) in &step.ticks {
                        if Some(c) == clock {
                            checker.step(v);
                        }
                    }
                }
                Expected::Assert {
                    name: name.to_owned(),
                    verdict: verdict_name(checker.verdict()).to_owned(),
                    fulfilled: checker.fulfilled(),
                    violation_count: checker.violation_count(),
                    violations: checker
                        .violations()
                        .iter()
                        .take(VIOLATION_KEEP)
                        .map(violation)
                        .collect(),
                }
            }
        };
        out.push(e);
    }
    Ok(out)
}

pub fn verdict_name(v: Verdict) -> &'static str {
    match v {
        Verdict::Idle => "idle",
        Verdict::Tracking => "tracking",
        Verdict::Passed => "passed",
        Verdict::Failed => "failed",
    }
}

pub fn violation(v: &Violation) -> (u64, u64, u64) {
    (v.antecedent_at, v.failed_at, v.progress as u64)
}

/// Serializes the reference, one target per line:
/// `detect KIND NAME MATCHES UNDERFLOWS FIRST LAST` or
/// `assert NAME VERDICT FULFILLED VIOLATIONS LIST` (lists are
/// comma-separated, `-` when empty; violations are `a:f:p`).
pub fn write_reference(reference: &[Expected]) -> String {
    let list = |xs: &[u64]| -> String {
        if xs.is_empty() {
            "-".to_owned()
        } else {
            xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
        }
    };
    let mut out = String::new();
    for e in reference {
        match e {
            Expected::Detect {
                kind,
                name,
                matches,
                first,
                last,
                underflows,
            } => {
                let _ = writeln!(
                    out,
                    "detect {kind} {name} {matches} {underflows} {} {}",
                    list(first),
                    list(last)
                );
            }
            Expected::Assert {
                name,
                verdict,
                fulfilled,
                violation_count,
                violations,
            } => {
                let vs = if violations.is_empty() {
                    "-".to_owned()
                } else {
                    violations
                        .iter()
                        .map(|(a, f, p)| format!("{a}:{f}:{p}"))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let _ = writeln!(
                    out,
                    "assert {name} {verdict} {fulfilled} {violation_count} {vs}"
                );
            }
        }
    }
    out
}

/// Parses [`write_reference`]'s format.
pub fn read_reference(text: &str) -> Result<Vec<Expected>, String> {
    fn num(s: &str) -> Result<u64, String> {
        s.parse()
            .map_err(|_| format!("bad number `{s}` in reference"))
    }
    fn list(s: &str) -> Result<Vec<u64>, String> {
        if s == "-" {
            return Ok(Vec::new());
        }
        s.split(',').map(num).collect()
    }
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split(' ').collect();
            match f.as_slice() {
                ["detect", kind, name, matches, underflows, first, last] => Ok(Expected::Detect {
                    kind: if *kind == "chart" {
                        "chart"
                    } else {
                        "multiclock"
                    },
                    name: (*name).to_owned(),
                    matches: num(matches)?,
                    first: list(first)?,
                    last: list(last)?,
                    underflows: num(underflows)?,
                }),
                ["assert", name, verdict, fulfilled, count, vs] => Ok(Expected::Assert {
                    name: (*name).to_owned(),
                    verdict: (*verdict).to_owned(),
                    fulfilled: num(fulfilled)?,
                    violation_count: num(count)?,
                    violations: if *vs == "-" {
                        Vec::new()
                    } else {
                        vs.split(',')
                            .map(|v| {
                                let p: Vec<&str> = v.split(':').collect();
                                match p.as_slice() {
                                    [a, f, g] => Ok((num(a)?, num(f)?, num(g)?)),
                                    _ => Err(format!("bad violation `{v}` in reference")),
                                }
                            })
                            .collect::<Result<_, _>>()?
                    },
                }),
                _ => Err(format!("bad reference line `{line}`")),
            }
        })
        .collect()
}

/// FNV-1a 64 of the dump: a stable digest to compare dumps across
/// runs and hosts.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
