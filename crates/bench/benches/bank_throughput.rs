//! Experiment B1: the batched zero-allocation engine against the
//! step-wise interpreter — the speedup behind the `scan_batch` /
//! `MonitorBank` hot-path rebuild.
//!
//! Two workloads:
//!
//! * **single monitor** — the OCP pipelined burst read (the paper's
//!   heaviest scoreboard program) over back-to-back compliant traffic:
//!   step-wise `scan` vs batched `scan_batch` vs a precompiled
//!   executor (isolating compile cost);
//! * **verification plan** — OCP burst + simple read + AMBA AHB charts
//!   merged into one shared-alphabet document, all checked over one
//!   trace: per-monitor step-wise scans vs one `MonitorBank` pass.
//!
//! Verdict equivalence between the two paths is asserted inline here
//! and property-tested in `tests/batch_equivalence.rs`; this bench
//! produces the measured speedup (acceptance bar: batched ≥ 2×
//! step-wise on the burst-read workload).

use cesc_bench::quick;
use cesc_core::{synthesize, MonitorBank, SynthOptions};
use cesc_protocols::ocp;
use cesc_protocols::traffic::{transaction_stream, TrafficConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// OCP burst + simple read + AMBA AHB in one document, so every
/// monitor shares one alphabet and can ride one trace feed.
fn plan_sources() -> String {
    format!(
        "{}\n{}\n{}",
        ocp::BURST_READ_SRC,
        ocp::SIMPLE_READ_SRC,
        cesc_protocols::amba::AHB_TRANSACTION_SRC
    )
}

fn bench(c: &mut Criterion) {
    // -- single monitor: OCP burst read ------------------------------
    let doc = ocp::burst_read_doc();
    let chart = doc.chart("ocp_burst_read").expect("chart");
    let monitor = synthesize(chart, &SynthOptions::default()).expect("synthesizable");
    let window = ocp::burst_read_window(&doc.alphabet);
    let trace = transaction_stream(
        &doc.alphabet,
        &window,
        &TrafficConfig {
            transactions: 5_000,
            gap: 2,
            ..Default::default()
        },
    );
    let reference = monitor.scan(&trace);
    assert_eq!(reference.matches.len(), 5_000, "compliant traffic");
    assert_eq!(reference, monitor.scan_batch(trace.as_slice()));

    let mut g = c.benchmark_group("bank_throughput/ocp_burst");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_with_input(
        BenchmarkId::from_parameter("stepwise_scan"),
        &trace,
        |b, t| b.iter(|| monitor.scan(black_box(t)).matches.len()),
    );
    g.bench_with_input(
        BenchmarkId::from_parameter("scan_batch"),
        &trace,
        |b, t| b.iter(|| monitor.scan_batch(black_box(t.as_slice())).matches.len()),
    );
    let compiled = monitor.compiled();
    g.bench_with_input(
        BenchmarkId::from_parameter("precompiled_exec"),
        &trace,
        |b, t| {
            let mut hits = Vec::new();
            b.iter(|| {
                let mut exec = compiled.executor();
                hits.clear();
                exec.feed(black_box(t.as_slice()), &mut hits);
                hits.len()
            })
        },
    );
    g.finish();

    // -- verification plan: three protocol charts, one feed ----------
    let plan_src = plan_sources();
    let plan_doc = cesc_chart::parse_document(&plan_src).expect("plan parses");
    let monitors: Vec<_> = plan_doc
        .charts
        .iter()
        .map(|chart| synthesize(chart, &SynthOptions::default()).expect("synthesizable"))
        .collect();
    let plan_window = ocp::burst_read_window(&plan_doc.alphabet);
    let plan_trace = transaction_stream(
        &plan_doc.alphabet,
        &plan_window,
        &TrafficConfig {
            transactions: 5_000,
            gap: 2,
            ..Default::default()
        },
    );

    // cross-check: bank verdicts equal independent step-wise scans
    let mut bank = MonitorBank::new();
    for m in &monitors {
        bank.add(m);
    }
    bank.feed(plan_trace.as_slice());
    for (i, m) in monitors.iter().enumerate() {
        assert_eq!(bank.hits(i), m.scan(&plan_trace).matches, "{}", m.name());
    }

    let mut g = c.benchmark_group("bank_throughput/plan_3_monitors");
    g.throughput(Throughput::Elements(plan_trace.len() as u64));
    g.bench_with_input(
        BenchmarkId::from_parameter("stepwise_each"),
        &plan_trace,
        |b, t| {
            b.iter(|| {
                monitors
                    .iter()
                    .map(|m| m.scan(black_box(t)).matches.len())
                    .sum::<usize>()
            })
        },
    );
    g.bench_with_input(
        BenchmarkId::from_parameter("monitor_bank"),
        &plan_trace,
        |b, t| {
            b.iter(|| {
                bank.reset();
                bank.feed(black_box(t.as_slice()));
                (0..bank.len()).map(|i| bank.hits(i).len()).sum::<usize>()
            })
        },
    );
    g.finish();

    // one-line JSON trajectory record (shared shape, see cesc_bench)
    let step_s = cesc_bench::time_per_pass(3, || {
        black_box(monitor.scan(&trace).matches.len());
    });
    let batch_s = cesc_bench::time_per_pass(10, || {
        black_box(monitor.scan_batch(trace.as_slice()).matches.len());
    });
    cesc_bench::emit_record(
        "bank_throughput",
        "ocp_burst_read",
        trace.len(),
        batch_s,
        &[
            ("stepwise_melem_per_s", cesc_bench::melem_per_s(trace.len(), step_s)),
            ("speedup", step_s / batch_s),
        ],
    );
}

criterion_group!(name = group; config = quick(); targets = bench);
criterion_main!(group);
