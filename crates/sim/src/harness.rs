//! Online monitoring harnesses.
//!
//! Connects synthesized monitors to a running [`Simulation`]: either
//! *inline* (monitors stepped in the simulation loop) or *decoupled*
//! (simulation thread streams [`GlobalStep`]s to monitor threads — how
//! checkers attach to a live simulator in practice). The step-wise
//! [`OnlineHarness`] / [`run_decoupled`] pair is the reference;
//! [`run_decoupled_parallel`] runs the same plan through the `cesc-par`
//! fleet, the engine `cesc check` uses.
//!
//! [`Simulation`]: crate::Simulation

use cesc_core::{Monitor, MonitorExec, MultiClockMonitor};
use cesc_trace::{ClockSet, GlobalStep};
use crossbeam::channel;

/// Number of [`GlobalStep`]s per chunk [`run_decoupled_parallel`]
/// feeds the fleet.
pub const HARNESS_CHUNK: usize = 1024;

/// Inline harness: single-clock monitors plus optional multi-clock
/// monitors, all stepped synchronously with the simulation.
#[derive(Debug)]
pub struct OnlineHarness<'m> {
    single: Vec<(usize, MonitorExec<'m>)>, // (clock index in ClockSet order, exec)
    single_hits: Vec<Vec<u64>>,
    multi: Vec<cesc_core::MultiClockExec<'m>>,
    multi_hits: Vec<Vec<u64>>,
}

impl<'m> OnlineHarness<'m> {
    /// Creates an empty harness.
    pub fn new() -> Self {
        OnlineHarness {
            single: Vec::new(),
            single_hits: Vec::new(),
            multi: Vec::new(),
            multi_hits: Vec::new(),
        }
    }

    /// Attaches a single-clock monitor; its [`Monitor::clock`] must name
    /// a domain of `clocks`.
    ///
    /// # Panics
    ///
    /// Panics if the monitor's clock is not in `clocks`.
    pub fn attach(&mut self, clocks: &ClockSet, monitor: &'m Monitor) -> usize {
        let clock = clocks
            .lookup(monitor.clock())
            .unwrap_or_else(|| panic!("monitor clock `{}` not in clock set", monitor.clock()));
        self.single.push((clock.index(), MonitorExec::new(monitor)));
        self.single_hits.push(Vec::new());
        self.single.len() - 1
    }

    /// Attaches a multi-clock monitor.
    pub fn attach_multiclock(&mut self, monitor: &'m MultiClockMonitor) -> usize {
        self.multi.push(monitor.executor());
        self.multi_hits.push(Vec::new());
        self.multi.len() - 1
    }

    /// Feeds one global step to every attached monitor.
    pub fn observe(&mut self, clocks: &ClockSet, step: &GlobalStep) {
        for (i, (clock_idx, exec)) in self.single.iter_mut().enumerate() {
            if let Some(v) = step
                .ticks
                .iter()
                .find(|(c, _)| c.index() == *clock_idx)
                .map(|&(_, v)| v)
            {
                if exec.step(v).matched {
                    self.single_hits[i].push(step.time);
                }
            }
        }
        for (i, exec) in self.multi.iter_mut().enumerate() {
            if exec.step_global(clocks, step) {
                self.multi_hits[i].push(step.time);
            }
        }
    }

    /// Global times at which single-clock monitor `idx` completed.
    pub fn hits(&self, idx: usize) -> &[u64] {
        &self.single_hits[idx]
    }

    /// Global times at which multi-clock monitor `idx` completed.
    pub fn multiclock_hits(&self, idx: usize) -> &[u64] {
        &self.multi_hits[idx]
    }
}

impl Default for OnlineHarness<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs monitors on a dedicated thread, receiving steps over a channel
/// from the simulation thread — the decoupled deployment of Fig 4's
/// "simulation environment" box.
///
/// Returns the completion times of each attached monitor once the
/// stream closes.
///
/// # Examples
///
/// ```
/// use cesc_chart::parse_document;
/// use cesc_core::{synthesize, SynthOptions};
/// use cesc_expr::Valuation;
/// use cesc_sim::{run_decoupled, PeriodicTransactor, Simulation};
/// use cesc_trace::ClockDomain;
///
/// let doc = parse_document(
///     "scesc p on clk { instances { M } events { x } tick { M: x } }",
/// ).unwrap();
/// let m = synthesize(doc.chart("p").unwrap(), &SynthOptions::default()).unwrap();
/// let x = doc.alphabet.lookup("x").unwrap();
///
/// let mut sim = Simulation::new();
/// sim.add_clock(ClockDomain::new("clk", 1, 0));
/// sim.add_transactor(Box::new(PeriodicTransactor::new(
///     "clk", vec![Valuation::of([x])], 1, 0,
/// )));
/// let hits = run_decoupled(&mut sim, 6, &[&m]);
/// assert_eq!(hits[0], vec![0, 2, 4]);
/// ```
pub fn run_decoupled(
    sim: &mut crate::kernel::Simulation,
    global_steps: usize,
    monitors: &[&Monitor],
) -> Vec<Vec<u64>> {
    let (tx, rx) = channel::bounded::<(GlobalStep, ())>(1024);
    let clocks = sim.clocks().clone();

    std::thread::scope(|scope| {
        let monitor_thread = scope.spawn(move || {
            let mut harness = OnlineHarness::new();
            for m in monitors {
                harness.attach(&clocks, m);
            }
            while let Ok((step, ())) = rx.recv() {
                harness.observe(&clocks, &step);
            }
            (0..monitors.len())
                .map(|i| harness.hits(i).to_vec())
                .collect::<Vec<_>>()
        });

        sim.run_with(global_steps, |_, step| {
            tx.send((step.clone(), ())).expect("monitor thread alive");
        });
        drop(tx);
        monitor_thread.join().expect("monitor thread panicked")
    })
}

/// Batched, sharded variant of [`run_decoupled`] for a mixed plan of
/// single-clock and multi-clock monitors: the simulation thread
/// streams [`HARNESS_CHUNK`]-sized chunks into a `cesc-par` fleet,
/// whose shard planner partitions the monitors across `jobs` worker
/// threads (cost-balanced, scoreboard-coupled members co-located).
/// Each worker owns its shard's complete mutable state, so the monitor
/// hot path runs without cross-shard locking; per-shard results merge
/// at join.
///
/// Returns `(single_hits, multiclock_hits)` in the argument orders —
/// bit-identical to the step-wise [`run_decoupled`] /
/// [`OnlineHarness`] on the same simulation, for any `jobs`
/// (property-tested in the workspace `batch_equivalence` suite).
/// `jobs == 0` or `1` still runs the fleet machinery on a single
/// worker.
///
/// # Panics
///
/// Panics if a monitor's clock (or a multi-clock local's clock) is not
/// in the simulation's clock set.
pub fn run_decoupled_parallel(
    sim: &mut crate::kernel::Simulation,
    global_steps: usize,
    monitors: &[&Monitor],
    multis: &[&MultiClockMonitor],
    jobs: usize,
) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
    let clocks = sim.clocks().clone();
    let mut fleet = cesc_par::Fleet::new();
    for m in monitors {
        assert!(
            clocks.lookup(m.clock()).is_some(),
            "monitor clock `{}` not in clock set",
            m.clock()
        );
        fleet.add(m);
    }
    for mm in multis {
        for local in mm.locals() {
            assert!(
                clocks.lookup(local.clock()).is_some(),
                "multi-clock local `{}`'s clock `{}` not in clock set",
                local.name(),
                local.clock()
            );
        }
        fleet.add_multiclock(mm);
    }
    let plan = cesc_par::plan_shards(&fleet, jobs);
    let opts = cesc_par::ParOptions::default(); // keep_all_hits: exact logs
    let (report, ()) = cesc_par::run_sharded(&fleet, &plan, Some(&clocks), &opts, |feeder| {
        let mut pending: Vec<GlobalStep> = Vec::with_capacity(HARNESS_CHUNK);
        sim.run_with(global_steps, |_, step| {
            pending.push(step.clone());
            if pending.len() >= HARNESS_CHUNK {
                feeder.feed_global(&pending);
                pending.clear();
            }
        });
        feeder.feed_global(&pending);
    });
    (
        report
            .singles
            .into_iter()
            .map(|r| r.log.all().expect("keep_all_hits").to_vec())
            .collect(),
        report
            .multis
            .into_iter()
            .map(|r| r.log.all().expect("keep_all_hits").to_vec())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{PeriodicTransactor, Simulation};
    use cesc_chart::parse_document;
    use cesc_core::{synthesize, synthesize_multiclock, SynthOptions};
    use cesc_expr::Valuation;
    use cesc_trace::ClockDomain;

    fn handshake_doc() -> cesc_chart::Document {
        parse_document(
            r#"
            scesc hs on clk {
                instances { M, S }
                events { req, ack }
                tick { M: req }
                tick { S: ack }
                cause req -> ack;
            }
        "#,
        )
        .unwrap()
    }

    /// One `clk` domain driving `hs`'s req/ack window every
    /// `2 + gap` ticks, starting at tick `start`.
    fn handshake_sim(doc: &cesc_chart::Document, gap: u64, start: u64) -> Simulation {
        let req = doc.alphabet.lookup("req").unwrap();
        let ack = doc.alphabet.lookup("ack").unwrap();
        let mut sim = Simulation::new();
        sim.add_clock(ClockDomain::new("clk", 1, 0));
        sim.add_transactor(Box::new(PeriodicTransactor::new(
            "clk",
            vec![Valuation::of([req]), Valuation::of([ack])],
            gap,
            start,
        )));
        sim
    }

    #[test]
    fn inline_harness_detects_periodic_traffic() {
        let doc = handshake_doc();
        let m = synthesize(doc.chart("hs").unwrap(), &SynthOptions::default()).unwrap();
        let mut sim = handshake_sim(&doc, 1, 0);
        let clocks_owned = sim.clocks().clone();
        let mut harness = OnlineHarness::new();
        let idx = harness.attach(&clocks_owned, &m);
        sim.run_with(9, |clocks, step| harness.observe(clocks, step));
        // windows complete at t=1, 4, 7
        assert_eq!(harness.hits(idx), &[1, 4, 7]);
    }

    #[test]
    fn decoupled_harness_agrees_with_inline() {
        let doc = handshake_doc();
        let m = synthesize(doc.chart("hs").unwrap(), &SynthOptions::default()).unwrap();
        let build_sim = || handshake_sim(&doc, 2, 1);

        let mut sim = build_sim();
        let clocks = sim.clocks().clone();
        let mut harness = OnlineHarness::new();
        harness.attach(&clocks, &m);
        sim.run_with(20, |c, s| harness.observe(c, s));
        let inline_hits = harness.hits(0).to_vec();

        let mut sim2 = build_sim();
        let decoupled_hits = run_decoupled(&mut sim2, 20, &[&m]);
        assert_eq!(decoupled_hits[0], inline_hits);
        assert!(!inline_hits.is_empty());
    }

    #[test]
    fn batch_harness_agrees_with_online_harness() {
        let doc = handshake_doc();
        let m = synthesize(doc.chart("hs").unwrap(), &SynthOptions::default()).unwrap();
        let build_sim = || handshake_sim(&doc, 1, 0);

        // more steps than one HARNESS_CHUNK: state must carry across
        // chunk borders
        let steps = 3 * HARNESS_CHUNK + 7;
        let mut sim = build_sim();
        let clocks = sim.clocks().clone();
        let mut online = OnlineHarness::new();
        online.attach(&clocks, &m);
        sim.run_with(steps, |c, s| online.observe(c, s));
        assert!(!online.hits(0).is_empty());

        for jobs in [1, 2] {
            let mut sim = build_sim();
            let (single, multi) = run_decoupled_parallel(&mut sim, steps, &[&m], &[], jobs);
            assert_eq!(single, vec![online.hits(0).to_vec()], "jobs={jobs}");
            assert!(multi.is_empty());
        }
    }

    #[test]
    fn batch_harness_multiple_domains() {
        let doc = parse_document(
            r#"
            scesc fastp on fast { instances { A } events { go } tick { A: go } }
            scesc slowp on slow { instances { B } events { done } tick { B: done } }
        "#,
        )
        .unwrap();
        let mf = synthesize(doc.chart("fastp").unwrap(), &SynthOptions::default()).unwrap();
        let ms = synthesize(doc.chart("slowp").unwrap(), &SynthOptions::default()).unwrap();
        let go = doc.alphabet.lookup("go").unwrap();
        let done = doc.alphabet.lookup("done").unwrap();

        let build_sim = || {
            let mut sim = Simulation::new();
            sim.add_clock(ClockDomain::new("fast", 1, 0));
            sim.add_clock(ClockDomain::new("slow", 2, 0));
            sim.add_transactor(Box::new(PeriodicTransactor::new(
                "fast",
                vec![Valuation::of([go])],
                0,
                0,
            )));
            sim.add_transactor(Box::new(PeriodicTransactor::new(
                "slow",
                vec![Valuation::of([done])],
                0,
                0,
            )));
            sim
        };
        let mut sim = build_sim();
        let clocks = sim.clocks().clone();
        let mut online = OnlineHarness::new();
        online.attach(&clocks, &mf);
        online.attach(&clocks, &ms);
        sim.run_with(12, |c, s| online.observe(c, s));
        assert!(!online.hits(1).is_empty());

        for jobs in [1, 2] {
            let mut sim = build_sim();
            let (single, _) = run_decoupled_parallel(&mut sim, 12, &[&mf, &ms], &[], jobs);
            assert_eq!(single[0], online.hits(0), "jobs={jobs}");
            assert_eq!(single[1], online.hits(1), "jobs={jobs}");
        }
    }

    #[test]
    fn decoupled_batched_agrees_with_decoupled() {
        let doc = handshake_doc();
        let m = synthesize(doc.chart("hs").unwrap(), &SynthOptions::default()).unwrap();
        let build_sim = || handshake_sim(&doc, 2, 1);

        let mut sim1 = build_sim();
        let reference = run_decoupled(&mut sim1, 40, &[&m]);
        assert!(!reference[0].is_empty());
        for jobs in [1, 2] {
            let mut sim2 = build_sim();
            let (batched, _) = run_decoupled_parallel(&mut sim2, 40, &[&m], &[], jobs);
            assert_eq!(batched, reference, "jobs={jobs}");
        }
    }

    /// Two-domain spec with cross causality plus a single-clock chart:
    /// the mixed-plan workloads below pin batch == step-wise.
    fn mixed_plan_doc() -> cesc_chart::Document {
        parse_document(
            r#"
            scesc m1 on clk1 { instances { A } events { go } tick { A: go } }
            scesc m2 on clk2 { instances { B } events { done } tick { B: done } }
            scesc pulse on clk1 { instances { A } events { go } tick { A: go } }
            multiclock pair { charts { m1, m2 } cause go -> done; }
        "#,
        )
        .unwrap()
    }

    /// A two-domain simulation driving `mixed_plan_doc`'s `go`/`done`
    /// with the given transactor gap.
    fn mixed_plan_sim(doc: &cesc_chart::Document, gap: u64) -> Simulation {
        let go = doc.alphabet.lookup("go").unwrap();
        let done = doc.alphabet.lookup("done").unwrap();
        let mut sim = Simulation::new();
        sim.add_clock(ClockDomain::new("clk1", 2, 0));
        sim.add_clock(ClockDomain::new("clk2", 3, 1));
        sim.add_transactor(Box::new(PeriodicTransactor::new(
            "clk1",
            vec![Valuation::of([go])],
            gap,
            0,
        )));
        sim.add_transactor(Box::new(PeriodicTransactor::new(
            "clk2",
            vec![Valuation::of([done])],
            gap,
            1,
        )));
        sim
    }

    #[test]
    fn batch_harness_multiclock_agrees_with_online() {
        let doc = mixed_plan_doc();
        let mm = synthesize_multiclock(
            doc.multiclock_spec("pair").unwrap(),
            &SynthOptions::default(),
        )
        .unwrap();
        let pulse = synthesize(doc.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();

        // more steps than one HARNESS_CHUNK: state must carry across
        // chunk borders
        let steps = 2 * HARNESS_CHUNK + 60;
        let mut sim = mixed_plan_sim(&doc, 4);
        let clocks = sim.clocks().clone();
        let mut online = OnlineHarness::new();
        let oi = online.attach_multiclock(&mm);
        let op = online.attach(&clocks, &pulse);
        sim.run_with(steps, |c, s| online.observe(c, s));
        assert!(!online.multiclock_hits(oi).is_empty());

        for jobs in [1, 2] {
            let mut sim = mixed_plan_sim(&doc, 4);
            let (single, multi) = run_decoupled_parallel(&mut sim, steps, &[&pulse], &[&mm], jobs);
            assert_eq!(multi[0], online.multiclock_hits(oi), "jobs={jobs}");
            assert_eq!(single[0], online.hits(op), "jobs={jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "not in clock set")]
    fn attach_multiclock_rejects_unknown_clock() {
        let doc = mixed_plan_doc();
        let mm = synthesize_multiclock(doc.multiclock_spec("pair").unwrap(), &SynthOptions::default())
            .unwrap();
        let mut sim = Simulation::new();
        sim.add_clock(ClockDomain::new("clk1", 1, 0)); // clk2 missing
        run_decoupled_parallel(&mut sim, 1, &[], &[&mm], 1);
    }

    #[test]
    fn decoupled_batched_plan_agrees_with_stepwise() {
        let doc = mixed_plan_doc();
        let mm = synthesize_multiclock(doc.multiclock_spec("pair").unwrap(), &SynthOptions::default())
            .unwrap();
        let pulse = synthesize(doc.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();

        let mut sim = mixed_plan_sim(&doc, 3);
        let clocks = sim.clocks().clone();
        let mut online = OnlineHarness::new();
        let oi = online.attach_multiclock(&mm);
        online.attach(&clocks, &pulse);
        sim.run_with(50, |c, s| online.observe(c, s));

        let mut sim2 = mixed_plan_sim(&doc, 3);
        let (single, multi) = run_decoupled_parallel(&mut sim2, 50, &[&pulse], &[&mm], 1);
        assert_eq!(multi[0], online.multiclock_hits(oi));
        assert_eq!(single[0], online.hits(0));
        assert!(!multi[0].is_empty());
    }

    #[test]
    fn decoupled_parallel_agrees_with_batched_plan_for_any_jobs() {
        let doc = mixed_plan_doc();
        let mm = synthesize_multiclock(doc.multiclock_spec("pair").unwrap(), &SynthOptions::default())
            .unwrap();
        let pulse = synthesize(doc.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();

        // the one-worker batched plan is the reference
        let mut sim = mixed_plan_sim(&doc, 3);
        let reference = run_decoupled_parallel(&mut sim, 50, &[&pulse], &[&mm], 1);
        assert!(!reference.1[0].is_empty());
        for jobs in [0, 2, 4] {
            let mut sim = mixed_plan_sim(&doc, 3);
            let parallel = run_decoupled_parallel(&mut sim, 50, &[&pulse], &[&mm], jobs);
            assert_eq!(parallel, reference, "jobs={jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "not in clock set")]
    fn decoupled_parallel_rejects_unknown_clock() {
        let doc = mixed_plan_doc();
        let pulse = synthesize(doc.chart("pulse").unwrap(), &SynthOptions::default()).unwrap();
        let mut sim = Simulation::new();
        sim.add_clock(ClockDomain::new("other", 1, 0));
        run_decoupled_parallel(&mut sim, 1, &[&pulse], &[], 2);
    }

    #[test]
    fn attach_spec_runs_optimized_tables_with_identical_hits() {
        // the cesc-spec compiled artifact (optimized, bit-sliced tables)
        // must see exactly the hits the raw compile records
        let src = r#"
            scesc hs on clk {
                instances { M, S }
                events { req, ack }
                tick { M: req }
                tick { S: ack }
                cause req -> ack;
            }
        "#;
        let specs = cesc_spec::SpecSet::load(src).unwrap();
        let m = synthesize(
            specs.document().chart("hs").unwrap(),
            &SynthOptions::default(),
        )
        .unwrap();
        let mut sim = handshake_sim(specs.document(), 2, 0);
        let clocks = sim.clocks().clone();
        let run = sim.run(40);
        let steps: Vec<GlobalStep> = run.iter().cloned().collect();

        let hits_of = |fleet: &cesc_par::Fleet, chunk: usize| {
            let plan = cesc_par::plan_shards(fleet, 1);
            let opts = cesc_par::ParOptions::default();
            let (report, ()) =
                cesc_par::run_sharded(fleet, &plan, Some(&clocks), &opts, |feeder| {
                    for c in steps.chunks(chunk) {
                        feeder.feed_global(c);
                    }
                });
            report.singles[0].log.all().expect("keep_all_hits").to_vec()
        };
        let mut plain = cesc_par::Fleet::new();
        plain.add(&m);
        let mut via_spec = cesc_par::Fleet::new();
        via_spec.add_compiled(specs.chart_spec(0).unwrap().compiled().clone());
        let reference = hits_of(&plain, steps.len());
        assert_eq!(hits_of(&via_spec, 3), reference);
        assert!(!reference.is_empty());
    }

    #[test]
    fn multiclock_monitor_in_harness() {
        let doc = parse_document(
            r#"
            scesc m1 on clk1 { instances { A } events { go } tick { A: go } }
            scesc m2 on clk2 { instances { B } events { done } tick { B: done } }
            multiclock pair { charts { m1, m2 } cause go -> done; }
        "#,
        )
        .unwrap();
        let mm = synthesize_multiclock(doc.multiclock_spec("pair").unwrap(), &SynthOptions::default())
            .unwrap();
        let go = doc.alphabet.lookup("go").unwrap();
        let done = doc.alphabet.lookup("done").unwrap();

        let mut sim = Simulation::new();
        sim.add_clock(ClockDomain::new("clk1", 2, 0));
        sim.add_clock(ClockDomain::new("clk2", 3, 1));
        sim.add_transactor(Box::new(PeriodicTransactor::new(
            "clk1",
            vec![Valuation::of([go])],
            9,
            0,
        )));
        sim.add_transactor(Box::new(PeriodicTransactor::new(
            "clk2",
            vec![Valuation::of([done])],
            9,
            0,
        )));
        let mut harness = OnlineHarness::new();
        let idx = harness.attach_multiclock(&mm);
        sim.run_with(10, |c, s| harness.observe(c, s));
        // go at t0 (clk1 tick0), done at t1 (clk2 tick0) → pair at t1
        assert!(!harness.multiclock_hits(idx).is_empty());
        assert_eq!(harness.multiclock_hits(idx)[0], 1);
    }
}
