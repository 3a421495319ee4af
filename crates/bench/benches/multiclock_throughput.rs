//! Experiment B2: the batched multi-clock engine against the step-wise
//! shared-scoreboard interpreter — the speedup behind the
//! `CompiledMultiClock` / `MultiClockMonitor::scan_batch` hot-path
//! rebuild.
//!
//! Workload: the paper's Figure 2 multi-clock read protocol
//! (cross-domain causality: the locals share scoreboard symbols)
//! over back-to-back compliant transactions on two domains with
//! co-prime-ish periods (clk1 period 6, clk2 period 2 phase 1).
//!
//! Verdict equivalence between the two paths is asserted inline here
//! and property-tested in `tests/batch_equivalence.rs`; this bench
//! produces the measured speedup (acceptance bar: batched ≥ 1.5×
//! step-wise on the multi-clock workload).

use cesc_bench::quick;
use cesc_core::{synthesize_multiclock, SynthOptions};
use cesc_expr::Valuation;
use cesc_protocols::readproto;
use cesc_trace::{ClockDomain, ClockSet, GlobalRun, Trace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// `n` back-to-back Fig 2 read transactions: clk1 runs its 3-tick
/// window every 18 time units (period 6), clk2 nests request→ready→
/// data inside it (period 2, phase 1) followed by idle ticks.
fn fig2_traffic(doc: &cesc_chart::Document, n: usize) -> (ClockSet, GlobalRun) {
    let (w1, w2) = readproto::multi_clock_windows(&doc.alphabet);
    let mut clocks = ClockSet::new();
    let c1 = clocks.add(ClockDomain::new("clk1", 6, 0));
    let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));

    let mut t1 = Trace::with_capacity(3 * n);
    for _ in 0..n {
        t1.extend(w1.iter().copied());
    }
    // one clk2 block per transaction: the 3-tick window plus idles
    // filling the 18-unit period (the final block drops the idles the
    // schedule never demands)
    let mut t2 = Trace::with_capacity(9 * n);
    for k in 0..n {
        t2.extend(w2.iter().copied());
        let idles = if k + 1 == n { 3 } else { 6 };
        t2.extend(std::iter::repeat_n(Valuation::empty(), idles));
    }
    let run = GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2)]).expect("aligned traffic");
    (clocks, run)
}

fn bench(c: &mut Criterion) {
    const TRANSACTIONS: usize = 20_000;
    let doc = readproto::multi_clock_doc();
    let spec = doc.multiclock_spec("read_multiclock").expect("spec");
    let monitor = synthesize_multiclock(spec, &SynthOptions::default()).expect("synthesizable");
    let (clocks, run) = fig2_traffic(&doc, TRANSACTIONS);

    // cross-check: compliant traffic, batch verdict == step-wise verdict
    let reference = monitor.scan(&clocks, &run);
    assert_eq!(reference.len(), TRANSACTIONS, "one match per transaction");
    assert_eq!(monitor.scan_batch(&clocks, &run), reference);
    let compiled = monitor.compiled();
    let locals = compiled.locals();
    assert_ne!(
        locals[0].touched_symbols() & locals[1].touched_symbols(),
        0,
        "cross arrows share scoreboard symbols"
    );

    let mut g = c.benchmark_group("multiclock_throughput/fig2_read");
    g.throughput(Throughput::Elements(run.len() as u64));
    g.bench_with_input(
        BenchmarkId::from_parameter("stepwise_scan"),
        &run,
        |b, r| b.iter(|| monitor.scan(&clocks, black_box(r)).len()),
    );
    g.bench_with_input(
        BenchmarkId::from_parameter("scan_batch"),
        &run,
        |b, r| b.iter(|| monitor.scan_batch(&clocks, black_box(r)).len()),
    );
    g.bench_with_input(
        BenchmarkId::from_parameter("precompiled_exec"),
        &run,
        |b, r| {
            let mut hits = Vec::new();
            b.iter(|| {
                let mut exec = compiled.executor(&clocks);
                hits.clear();
                exec.feed(black_box(r.as_slice()), &mut hits);
                hits.len()
            })
        },
    );
    g.finish();

    // one-line JSON trajectory record (shared shape, see cesc_bench)
    let step_s = cesc_bench::time_per_pass(3, || {
        black_box(monitor.scan(&clocks, &run).len());
    });
    let batch_s = cesc_bench::time_per_pass(5, || {
        black_box(monitor.scan_batch(&clocks, &run).len());
    });
    cesc_bench::emit_record(
        "multiclock_throughput",
        "fig2_read_coupled",
        run.len(),
        batch_s,
        &[
            ("stepwise_melem_per_s", cesc_bench::melem_per_s(run.len(), step_s)),
            ("speedup", step_s / batch_s),
        ],
    );
}

criterion_group!(name = group; config = quick(); targets = bench);
criterion_main!(group);
