//! The measured runs: untraced passes through `cesc::cli::check_fleet`
//! (the route `cesc check --all-charts --vcd FILE` takes) and traced
//! passes through a span-recording replica of that route, assembled
//! from each layer's public functions.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cesc::cli::{check_fleet, CheckOptions, MATCH_EDGE};
use cesc::core::BATCH_CHUNK;
use cesc::obs::{key, Obs};
use cesc::par::{plan_shards, run_sharded, AssertSpec, Fleet, FleetReport, ParOptions};
use cesc::spec::{SpecOptions, SpecSet, TargetRef};
use cesc::trace::GlobalVcdStream;

use crate::json::{self, Value};
use crate::segments::{fastest_segments, Clock, Mark, Tap};
use crate::stats::Metric;
use crate::sys;
use crate::workloads::{verdict_name, violation, Expected, VIOLATION_KEEP};

/// Timed passes made at least, however long they take.
const MIN_PASSES: usize = 3;

/// Set-up repetitions after each timed pass: at least
/// [`MIN_SETUPS`], and more until [`SETUP_SLICE`] has passed. Spread
/// over the run like the passes, their median sees the same host.
const MIN_SETUPS: usize = 3;
const SETUP_SLICE: Duration = Duration::from_millis(50);

/// Fresh-process checks for `peak_rss_mb`, made before the timed
/// passes. One check's peak repeats to within a few percent, so three
/// suffice.
const FRESH_CHECKS: usize = 3;

/// Share of the traced wall time the named layers must account for.
const MIN_ATTRIBUTED: f64 = 0.95;

/// A generated workload as the checked program sees it: the spec text
/// and the dump on disk, plus what the generator recorded about them.
pub struct Inputs {
    pub spec: String,
    pub vcd: PathBuf,
    pub bytes: u64,
    pub steps: u64,
    pub samples: u64,
    pub reference: Vec<Expected>,
}

/// What a run measured: its metrics, how many target verdicts it
/// checked and how many of those were wrong, and whether every check
/// it owes passed.
pub struct Record {
    pub metrics: Vec<Metric>,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub notes: Vec<String>,
}

/// Verdict tally over every checked pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }
}

fn check_options(jobs: usize) -> CheckOptions {
    CheckOptions {
        jobs,
        json: true,
        ..CheckOptions::default()
    }
}

/// One untraced pass: bytes on disk to rendered verdict, exactly as
/// `cesc check --all-charts --json` runs it, the dump read through a
/// [`Tap`] that marks every segment.
struct Pass {
    wall: Duration,
    cpu: Duration,
    /// Segment marks, the last one taken when the pass ended.
    marks: Vec<Mark>,
    failed: usize,
}

fn check_pass(inp: &Inputs, opts: &CheckOptions) -> Pass {
    let mut clock = Clock::start();
    let result = File::open(&inp.vcd)
        .map_err(|e| e.to_string())
        .and_then(|file| {
            let dump = Tap::new(BufReader::new(file), &mut clock);
            check_fleet(&inp.spec, &[], true, dump, None, opts).map_err(|e| e.to_string())
        });
    clock.mark();
    let Mark { wall, cpu } = clock.marks[clock.marks.len() - 1];
    let failed = match result {
        Ok(outcome) => failed_in_report(&outcome.output, inp),
        Err(e) => {
            eprintln!("check failed: {e}");
            inp.reference.len()
        }
    };
    Pass {
        wall,
        cpu,
        marks: clock.marks,
        failed,
    }
}

/// Targets of a `cesc-check/3` report that differ from the reference.
/// A report whose stream totals are wrong fails every target.
fn failed_in_report(text: &str, inp: &Inputs) -> usize {
    let all = inp.reference.len();
    let Ok(report) = json::parse(text) else {
        eprintln!("check report is not JSON");
        return all;
    };
    let total = |k: &str| report.get(k).and_then(Value::u64);
    if total("global_steps") != Some(inp.steps) || total("ticks") != Some(inp.samples) {
        eprintln!(
            "stream totals differ: global_steps {:?} (expected {}), ticks {:?} (expected {})",
            total("global_steps"),
            inp.steps,
            total("ticks"),
            inp.samples
        );
        return all;
    }
    let Some(targets) = report.get("targets").and_then(Value::arr) else {
        return all;
    };
    if targets.len() != all {
        return all;
    }
    let observed: Vec<Option<Expected>> = targets.iter().map(from_json).collect();
    count_mismatches(&observed, &inp.reference)
}

fn count_mismatches(observed: &[Option<Expected>], reference: &[Expected]) -> usize {
    observed
        .iter()
        .zip(reference)
        .filter(|(got, want)| {
            let ok = got.as_ref() == Some(*want);
            if !ok {
                eprintln!("verdict differs: got {got:?}, expected {want:?}");
            }
            !ok
        })
        .count()
}

fn from_json(t: &Value) -> Option<Expected> {
    let name = t.get("name")?.str()?.to_owned();
    let num = |k: &str| t.get(k).and_then(Value::u64);
    let kind = match t.get("kind")?.str()? {
        "chart" => "chart",
        "multiclock" => "multiclock",
        "assert" => {
            let violations = t
                .get("violations")?
                .arr()?
                .iter()
                .map(|v| {
                    let f = |k: &str| v.get(k).and_then(Value::u64);
                    Some((f("antecedent_at")?, f("failed_at")?, f("progress")?))
                })
                .collect::<Option<_>>()?;
            return Some(Expected::Assert {
                name,
                verdict: t.get("verdict")?.str()?.to_owned(),
                fulfilled: num("fulfilled")?,
                violation_count: num("violation_count")?,
                violations,
            });
        }
        _ => return None,
    };
    Some(Expected::Detect {
        kind,
        name,
        matches: num("matches")?,
        first: t.get("first")?.u64s()?,
        last: t.get("last")?.u64s()?,
        underflows: num("underflows")?,
    })
}

/// The fleet `check_fleet` builds for `targets`, plus each target's
/// slot in the fleet's per-kind report.
fn build_fleet(specs: &SpecSet, targets: &[TargetRef]) -> Result<(Fleet, Vec<usize>), String> {
    let mut fleet = Fleet::new();
    let mut slots = Vec::with_capacity(targets.len());
    for &target in targets {
        let slot = match target {
            TargetRef::Chart(i) => {
                fleet.add_compiled(specs.chart_spec(i).map_err(err)?.compiled().clone())
            }
            TargetRef::Multi(i) => {
                fleet.add_compiled_multiclock(specs.multi_spec(i).map_err(err)?.compiled().clone())
            }
            TargetRef::Assert(i) => {
                let spec = specs.assert_spec(i).map_err(err)?;
                fleet.add_assert(AssertSpec::new(
                    spec.name(),
                    spec.clock(),
                    spec.antecedent().clone(),
                    spec.consequent().clone(),
                ))
            }
        };
        slots.push(slot);
    }
    Ok((fleet, slots))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn load_specs(inp: &Inputs, obs: Obs) -> Result<SpecSet, String> {
    SpecSet::load_with(
        &inp.spec,
        SpecOptions {
            obs,
            ..SpecOptions::new()
        },
    )
    .map_err(err)
}

/// One set-up: spec load to the first dump byte — what `check_fleet`
/// does before it opens the dump.
fn setup_once(inp: &Inputs, jobs: usize) -> Result<Duration, String> {
    let t0 = Instant::now();
    let specs = load_specs(inp, Obs::enabled())?;
    let targets = specs.checkable_targets();
    let (fleet, _) = build_fleet(&specs, &targets)?;
    let plan = specs.clock_plan(&targets, None).map_err(err)?;
    let clock_specs = plan.vcd_specs();
    let clock_set = plan.clock_set();
    let shards = plan_shards(&fleet, jobs);
    let took = t0.elapsed();
    std::hint::black_box((clock_specs, clock_set, shards));
    Ok(took)
}

fn setup_slice(inp: &Inputs, jobs: usize, out: &mut Vec<f64>) -> Result<(), String> {
    let t0 = Instant::now();
    let mut n = 0;
    while n < MIN_SETUPS || t0.elapsed() < SETUP_SLICE {
        out.push(setup_once(inp, jobs)?.as_secs_f64());
        n += 1;
    }
    Ok(())
}

/// One check in a fresh process, as `cesc check` runs it: the process's
/// peak resident set in bytes, and the targets whose verdict was wrong.
pub fn fresh_check(inp: &Inputs, jobs: usize) -> (u64, usize) {
    let p = check_pass(inp, &check_options(jobs));
    (sys::peak_rss_bytes(), p.failed)
}

/// The untraced run: the end-to-end metrics. `fresh` runs
/// [`fresh_check`] in a new process and returns its result.
pub fn untraced(
    inp: &Inputs,
    jobs: usize,
    seconds: f64,
    fresh: impl Fn() -> Result<(u64, usize), String>,
) -> Result<Record, String> {
    let opts = check_options(jobs);
    let mut tally = Tally::default();
    let n = inp.reference.len();

    // the fresh-process checks come first and are untimed: they warm
    // the page cache. What this process's first pass pays once
    // (allocator growth, lazy statics) its later passes do not, and
    // the fastest segments leave it out
    let mut rss = Vec::new();
    while rss.len() < FRESH_CHECKS {
        let (peak, failed) = fresh()?;
        tally.add(n, failed);
        rss.push(peak as f64 / 1e6);
    }
    setup_slice(inp, jobs, &mut Vec::new())?;

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut timelines = Vec::new();
    let mut setup = Vec::new();
    let t0 = Instant::now();
    while walls.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let p = check_pass(inp, &opts);
        tally.add(n, p.failed);
        walls.push(p.wall.as_secs_f64());
        cpus.push(p.cpu.as_secs_f64());
        timelines.push(p.marks);
        setup_slice(inp, jobs, &mut setup)?;
    }
    // throughput and CPU time are those of the run's fastest segments
    // (see `segments`); the per-pass figures go into the context line
    let (wall, cpu) = fastest_segments(&timelines)?;
    let mb = inp.bytes as f64 / 1e6;
    let msamples = inp.samples as f64 / 1e6;
    let metrics = vec![
        Metric::new(
            "mb_per_s",
            "MB/s",
            mb / wall,
            walls.iter().map(|w| mb / w).collect(),
        ),
        Metric::new(
            "msamples_per_s",
            "M/s",
            msamples / wall,
            walls.iter().map(|w| msamples / w).collect(),
        ),
        Metric::median("setup_s", "s", setup),
        Metric::new("cpu_s", "s", cpu, cpus),
        Metric::median("peak_rss_mb", "MB", rss),
    ];
    Ok(Record {
        metrics,
        passes: walls.len(),
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0,
        notes: Vec::new(),
    })
}

/// A span recorded by the benchmark around a call into one layer.
struct Span {
    parent: Option<usize>,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// Spans of the whole run, kept in memory and written out at its end.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            parent,
            name,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Summed duration of the spans named `name` from `first` on.
    fn total(&self, first: usize, name: &str) -> f64 {
        self.spans[first..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Self time of span `id`: its duration minus its children's.
    fn self_time(&self, id: usize) -> f64 {
        let own = (self.spans[id].end - self.spans[id].start).as_secs_f64();
        let children: f64 = self.spans[id + 1..]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum();
        own - children
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto), one
    /// complete event per span; `args` carry the span and parent ids.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                    s.name,
                    s.start.as_secs_f64() * 1e6,
                    (s.end - s.start).as_secs_f64() * 1e6
                )
            })
            .collect();
        std::fs::write(path, format!("[\n{}\n]\n", events.join(",\n")))
    }
}

/// Everything one traced pass measured.
struct TracedPass {
    wall: f64,
    values: Vec<(&'static str, f64)>,
    /// Exact counts that must repeat from pass to pass.
    counts: Vec<(&'static str, u64)>,
    failed: usize,
}

/// One traced pass: the `check_fleet` route rebuilt from the layers'
/// public functions, with a span around every call into a layer.
fn traced_pass(inp: &Inputs, jobs: usize, spans: &mut Spans) -> Result<TracedPass, String> {
    let first = spans.spans.len();
    let root = spans.open("check", None);
    // check_fleet records into a private live registry; so does this
    let obs = Obs::enabled();

    let setup = spans.open("setup", Some(root));
    let load = spans.open("spec.load", Some(setup));
    let specs = load_specs(inp, obs.clone())?;
    let targets = specs.checkable_targets();
    let (fleet, slots) = build_fleet(&specs, &targets)?;
    spans.close(load);
    let plan_span = spans.open("spec.plan", Some(setup));
    let obs_plan = obs.span("plan");
    let plan = specs.clock_plan(&targets, None).map_err(err)?;
    let clock_specs = plan.vcd_specs();
    let clock_set = plan.clock_set();
    let shard_plan = plan_shards(&fleet, jobs);
    drop(obs_plan);
    spans.close(plan_span);
    spans.close(setup);

    let open = spans.open("trace.ingest", Some(root));
    let file = File::open(&inp.vcd).map_err(err)?;
    let mut stream =
        GlobalVcdStream::from_reader(BufReader::new(file), specs.alphabet(), &clock_specs)
            .map_err(err)?;
    spans.close(open);

    let par_opts = ParOptions {
        keep_all_hits: false,
        edge: MATCH_EDGE,
        obs: obs.clone(),
        ..ParOptions::default()
    };
    let tick_counter = obs.counter(key::FLEET_TICKS);
    let exec_span = obs.span("execute");
    let start = spans.open("par.start", Some(root));
    let (report, driven) =
        run_sharded(&fleet, &shard_plan, Some(&clock_set), &par_opts, |feeder| {
            spans.close(start);
            let mut chunk = Vec::new();
            let (mut steps, mut ticks) = (0u64, 0u64);
            loop {
                let s = spans.open("trace.ingest", Some(root));
                let n = stream.next_chunk(&mut chunk, BATCH_CHUNK);
                spans.close(s);
                let n = n.map_err(err)?;
                if n == 0 {
                    let drain = spans.open("par.drain", Some(root));
                    return Ok::<_, String>((steps, ticks, drain));
                }
                steps += n as u64;
                let chunk_ticks: u64 = chunk.iter().map(|s| s.ticks.len() as u64).sum();
                ticks += chunk_ticks;
                tick_counter.add(chunk_ticks);
                let f = spans.open("par.feed", Some(root));
                feeder.feed_global(&chunk);
                spans.close(f);
            }
        });
    let (steps, ticks, drain) = driven?;
    spans.close(drain);
    drop(exec_span);
    spans.close(root);

    let observed: Vec<Option<Expected>> = targets
        .iter()
        .zip(&slots)
        .map(|(&t, &slot)| Some(observed(&specs, &report, t, slot)))
        .collect();
    let mut failed = count_mismatches(&observed, &inp.reference);
    if steps != inp.steps || ticks != inp.samples {
        eprintln!("traced stream totals differ: {steps} steps, {ticks} samples");
        failed = inp.reference.len();
    }

    let run = obs.report("check");
    let busy: u64 = run.shards.iter().map(|s| s.busy_ns).sum();
    let wait: u64 = run.shards.iter().map(|s| s.wait_ns).sum();
    let engine_ns: u64 = report.singles.iter().map(|r| r.exec_ns).sum::<u64>()
        + report.multis.iter().map(|r| r.exec_ns).sum::<u64>()
        + report.asserts.iter().map(|r| r.exec_ns).sum::<u64>();
    let engine_s = engine_ns as f64 / 1e9;
    let engine_ticks = run.counter(key::ENGINE_TICKS);

    let wall = (spans.spans[root].end - spans.spans[root].start).as_secs_f64();
    let ingest = spans.total(first, "trace.ingest");
    let load_s = spans.total(first, "spec.load");
    let plan_s = spans.total(first, "spec.plan");
    let par_start = spans.total(first, "par.start");
    let feed = spans.total(first, "par.feed");
    let drain_s = spans.total(first, "par.drain");
    let other = spans.self_time(root);
    // one shard runs inline on this thread, inside `feed_global`; more
    // shards run on their own threads, off this thread's wall time
    let core_self = if shard_plan.shards().len() <= 1 {
        engine_s
    } else {
        0.0
    };
    let par_self = par_start + feed + drain_s - core_self;
    let values = vec![
        ("spec.load_s", load_s),
        ("spec.plan_s", plan_s),
        ("trace.ingest_s", ingest),
        ("trace.ingest_mb_per_s", inp.bytes as f64 / 1e6 / ingest),
        ("trace.ingest_share", ingest / wall),
        ("par.start_s", par_start),
        ("par.feed_s", feed),
        ("par.drain_s", drain_s),
        ("par.self_s", par_self),
        ("par.worker_busy_s", busy as f64 / 1e9),
        ("par.worker_wait_s", wait as f64 / 1e9),
        ("par.imbalance", shard_plan.imbalance()),
        ("core.engine_s", engine_s),
        ("core.self_s", core_self),
        (
            "core.mticks_per_s",
            if engine_s > 0.0 {
                engine_ticks as f64 / 1e6 / engine_s
            } else {
                0.0
            },
        ),
        ("cli.other_s", other),
        ("bench.attributed", 1.0 - other / wall),
    ];
    let counts = vec![
        ("spec.members", fleet.len() as u64),
        ("par.shards", shard_plan.shards().len() as u64),
        ("trace.bytes", inp.bytes),
        ("trace.steps", steps),
        ("trace.samples", ticks),
        ("core.ticks", engine_ticks),
        ("core.matches", run.counter(key::ENGINE_MATCHES)),
        ("core.words", run.counter(key::ENGINE_WORDS)),
        ("core.dense_words", run.counter(key::ENGINE_DENSE_WORDS)),
    ];
    Ok(TracedPass {
        wall,
        values,
        counts,
        failed,
    })
}

/// A fleet member's result in the reference's terms.
fn observed(specs: &SpecSet, report: &FleetReport, target: TargetRef, slot: usize) -> Expected {
    let name = specs.target_name(target).to_owned();
    let detect = |kind, log: &cesc::par::MatchLog, underflows| Expected::Detect {
        kind,
        name: name.clone(),
        matches: log.count(),
        first: log.first().to_vec(),
        last: log.last(),
        underflows,
    };
    match target {
        TargetRef::Chart(_) => {
            let r = &report.singles[slot];
            detect("chart", &r.log, r.underflows)
        }
        TargetRef::Multi(_) => {
            let r = &report.multis[slot];
            detect("multiclock", &r.log, r.underflows)
        }
        TargetRef::Assert(_) => {
            let r = &report.asserts[slot];
            Expected::Assert {
                name,
                verdict: verdict_name(r.verdict).to_owned(),
                fulfilled: r.fulfilled,
                violation_count: r.violation_count,
                violations: r
                    .violations
                    .iter()
                    .take(VIOLATION_KEEP)
                    .map(violation)
                    .collect(),
            }
        }
    }
}

/// The traced run: per-layer metrics. Untraced and traced passes
/// alternate, so the tracing overhead compares like with like.
pub fn traced(inp: &Inputs, jobs: usize, seconds: f64, spans_out: &Path) -> Result<Record, String> {
    let opts = check_options(jobs);
    let n = inp.reference.len();
    let mut tally = Tally::default();
    let mut spans = Spans {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    // first pair untimed
    tally.add(n, check_pass(inp, &opts).failed);
    tally.add(n, traced_pass(inp, jobs, &mut spans)?.failed);

    let mut untraced_walls = Vec::new();
    let mut passes: Vec<TracedPass> = Vec::new();
    let t0 = Instant::now();
    while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let p = check_pass(inp, &opts);
        tally.add(n, p.failed);
        untraced_walls.push(p.wall.as_secs_f64());
        let t = traced_pass(inp, jobs, &mut spans)?;
        tally.add(n, t.failed);
        passes.push(t);
    }
    spans.write(spans_out).map_err(err)?;

    let mut notes = Vec::new();
    let mut correct = tally.failed == 0;
    let mut metrics: Vec<Metric> = passes[0]
        .values
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let unit = unit_of(name);
            Metric::median(name, unit, passes.iter().map(|p| p.values[i].1).collect())
        })
        .collect();
    for (i, &(name, value)) in passes[0].counts.iter().enumerate() {
        if passes.iter().any(|p| p.counts[i].1 != value) {
            correct = false;
            notes.push(format!("count `{name}` differs between passes"));
        }
        metrics.push(Metric::median(name, "count", vec![value as f64]));
    }
    // each traced pass against the untraced pass just before it, so the
    // host's slow and fast stretches cancel out of the ratio
    metrics.push(Metric::median(
        "bench.trace_overhead",
        "ratio",
        passes
            .iter()
            .zip(&untraced_walls)
            .map(|(t, u)| t.wall / u - 1.0)
            .collect(),
    ));
    metrics.push(Metric::median(
        "failed_ratio",
        "ratio",
        vec![tally.failed as f64 / tally.attempted as f64],
    ));
    let attributed = metrics
        .iter()
        .find(|m| m.name == "bench.attributed")
        .map_or(0.0, |m| m.value);
    if attributed < MIN_ATTRIBUTED {
        correct = false;
        notes.push(format!(
            "named layers attribute {:.1}% of the traced wall time (< {:.0}%)",
            attributed * 100.0,
            MIN_ATTRIBUTED * 100.0
        ));
    }
    Ok(Record {
        metrics,
        passes: passes.len(),
        attempted: tally.attempted,
        failed: tally.failed,
        correct,
        notes,
    })
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_mb_per_s") {
        "MB/s"
    } else if name.ends_with("mticks_per_s") {
        "M/s"
    } else if name.ends_with("_s") {
        "s"
    } else {
        "ratio"
    }
}
