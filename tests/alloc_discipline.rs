//! Steady-state allocation discipline, pinned by a counting global
//! allocator: after warmup, (a) `GlobalVcdStream::next_chunk` on a
//! one-clock and a two-clock plan, (b) the bit-sliced
//! `BatchExec::feed` hot loop, (c) the bit-sliced
//! `MonitorBank::feed_global` (the `cesc check` route) and (d) an
//! `implies(...)` assert member of a sharded run fed through
//! `FleetFeeder::feed_global` must perform **zero** heap allocations
//! per chunk. This is the contract behind
//! the streaming `cesc check` path: decode buffers, recycled
//! `GlobalStep::ticks` vectors, projection buffers, the slice
//! scratch and the checker's obligation list are all reused, so throughput does not degrade into
//! allocator traffic on 100k+-tick dumps.
//!
//! Everything runs inside ONE `#[test]` — the counter is process-wide
//! and the harness runs separate tests concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

use cesc::core::{synthesize, CompileOptions, MonitorBank, SynthOptions, Verdict};
use cesc::expr::Valuation;
use cesc::par::{plan_shards, run_sharded, AssertSpec, Fleet, ParOptions};
use cesc::prelude::parse_document;
use cesc::trace::{
    write_vcd, write_vcd_global, ClockDomain, ClockSet, GlobalRun, GlobalStep, GlobalVcdStream,
    Trace, VcdClockSpec, VcdWriteOptions,
};

/// Counts every `alloc`/`realloc` handed to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations performed while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

const SPEC: &str = r#"
scesc flow on clk {
    instances { A, B }
    events { req, ack }
    tick { A: req }
    tick { B: ack }
}
scesc ante on clk { instances { A } events { req } tick { A: req } }
scesc cons on clk { instances { B } events { ack } tick { B: ack } }
"#;

const CHUNK: usize = 256;
const CHUNKS: usize = 8;

#[test]
fn streaming_hot_loops_allocate_nothing_after_warmup() {
    let doc = parse_document(SPEC).unwrap();
    let req = doc.alphabet.lookup("req").unwrap();
    let ack = doc.alphabet.lookup("ack").unwrap();
    let elements: Vec<Valuation> = (0..CHUNK * CHUNKS)
        .map(|i| {
            if i % 2 == 0 {
                Valuation::of([req])
            } else {
                Valuation::of([ack])
            }
        })
        .collect();

    // (a) VCD streaming: the parser reuses its line buffer and the
    // caller's chunk buffer, and `GlobalStep::ticks` vectors are
    // recycled through the stream's spare pool across chunks — on a
    // one-clock plan (what a single-clock check reads) and on two
    // masked clocks.
    let one_clock = write_vcd(
        &Trace::from_elements(elements.clone()),
        &doc.alphabet,
        &VcdWriteOptions::default(),
    );
    let mut clocks = ClockSet::new();
    let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
    let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
    let per_domain = CHUNK * CHUNKS / 2;
    let run = GlobalRun::interleave(
        &clocks,
        &[
            (c1, Trace::from_elements(vec![Valuation::of([req]); per_domain])),
            (c2, Trace::from_elements(vec![Valuation::of([ack]); per_domain])),
        ],
    )
    .unwrap();
    let owners = [Valuation::of([req]), Valuation::of([ack])];
    let two_clocks = write_vcd_global(
        &run,
        &clocks,
        &doc.alphabet,
        &owners,
        &VcdWriteOptions::default(),
    );
    let plans = [
        (one_clock, vec![VcdClockSpec::new("clk")]),
        (
            two_clocks,
            vec![
                VcdClockSpec::masked("clk1", owners[0]),
                VcdClockSpec::masked("clk2", owners[1]),
            ],
        ),
    ];
    for (text, specs) in &plans {
        let mut stream =
            GlobalVcdStream::from_reader(Cursor::new(text), &doc.alphabet, specs).unwrap();
        let mut gbuf: Vec<GlobalStep> = Vec::with_capacity(CHUNK);
        // warmup: two chunks, so the spare pool has absorbed one full
        // recycle cycle (the pool vector itself grows on the first drain)
        let mut decoded = stream.next_chunk(&mut gbuf, CHUNK).unwrap();
        decoded += stream.next_chunk(&mut gbuf, CHUNK).unwrap();
        let steady = allocs_during(|| loop {
            let n = stream.next_chunk(&mut gbuf, CHUNK).unwrap();
            if n == 0 {
                break;
            }
            decoded += n;
        });
        let clocks = specs.len();
        assert_eq!(decoded, CHUNK * CHUNKS, "{clocks} clock(s): whole dump decoded");
        assert_eq!(
            steady, 0,
            "{clocks} clock(s): GlobalVcdStream::next_chunk allocated in steady state"
        );
    }

    // (b) the bit-sliced execution hot loop: transpose scratch and the
    // word cache live in the executor; only hit recording may touch
    // the (pre-sized) hits vector.
    let monitor = synthesize(doc.chart("flow").unwrap(), &SynthOptions::default()).unwrap();
    let compiled = monitor.compiled_with(&CompileOptions::optimized());
    let mut exec = compiled.executor();
    let mut hits: Vec<u64> = Vec::with_capacity(elements.len());
    exec.feed(&elements[..CHUNK], &mut hits); // warmup
    let steady = allocs_during(|| {
        for chunk in elements[CHUNK..].chunks(CHUNK) {
            exec.feed(chunk, &mut hits);
        }
    });
    assert_eq!(steady, 0, "bit-sliced BatchExec::feed allocated in steady state");
    assert!(exec.words() > 0, "the bit-sliced path must actually run");
    let report = exec.finish(hits);
    assert_eq!(
        report,
        monitor.scan(Trace::from_elements(elements.clone())),
        "zero-alloc run still matches the step-wise verdict"
    );

    // (c) the bit-sliced member dispatch behind `feed_global`, on a
    // sparse one-clock run (one handshake per 100 ticks, so words are
    // quiet and the sliced path stays selected); hits are drained per
    // chunk as the fleet's shard workers do
    let (clocks, clk) = ClockSet::single();
    let steps: Vec<GlobalStep> = (0..CHUNK * CHUNKS)
        .map(|i| {
            let v = match i % 100 {
                0 => Valuation::of([req]),
                1 => Valuation::of([ack]),
                _ => Valuation::empty(),
            };
            GlobalStep {
                time: 10 * i as u64,
                ticks: vec![(clk, v)],
            }
        })
        .collect();
    let mut bank = MonitorBank::new();
    bank.add_compiled(compiled.clone());
    bank.bind_clocks(&clocks);
    let mut drained = 0usize;
    bank.feed_global(&steps[..CHUNK]); // warmup
    bank.drain_hits(|_, hits| drained += hits.len());
    let warm_words = bank.engine_words();
    let steady = allocs_during(|| {
        for chunk in steps[CHUNK..].chunks(CHUNK) {
            bank.feed_global(chunk);
            bank.drain_hits(|_, hits| drained += hits.len());
        }
    });
    assert_eq!(
        steady, 0,
        "bit-sliced MonitorBank::feed_global allocated in steady state"
    );
    assert!(
        bank.engine_words() > warm_words,
        "the sliced path must run in steady state"
    );
    assert!(
        bank.engine_dense_words() < bank.engine_words(),
        "idle words are quiet"
    );
    assert_eq!(
        drained,
        CHUNK * CHUNKS / 100 + 1,
        "one detection per handshake"
    );

    // (d) the production assert path: a one-shard sharded run with an
    // `implies(ante, cons)` member in summary mode, fed through
    // `feed_global`, over a trace whose every `req` tick completes the
    // antecedent and whose next `ack` tick fulfils the obligation —
    // the checker advances its obligation list in place
    let ante = synthesize(doc.chart("ante").unwrap(), &SynthOptions::default()).unwrap();
    let cons = synthesize(doc.chart("cons").unwrap(), &SynthOptions::default()).unwrap();
    let mut fleet = Fleet::new();
    fleet.add_assert(AssertSpec::new("gate", "clk", ante, cons));
    let plan = plan_shards(&fleet, 1);
    let dense: Vec<GlobalStep> = elements
        .iter()
        .enumerate()
        .map(|(i, &v)| GlobalStep {
            time: i as u64,
            ticks: vec![(clk, v)],
        })
        .collect();
    let opts = ParOptions {
        keep_all_hits: false,
        ..ParOptions::default()
    };
    let (report, steady) = run_sharded(&fleet, &plan, Some(&clocks), &opts, |feeder| {
        feeder.feed_global(&dense[..CHUNK]); // warmup
        allocs_during(|| {
            for chunk in dense[CHUNK..].chunks(CHUNK) {
                feeder.feed_global(chunk);
            }
        })
    });
    assert_eq!(
        steady, 0,
        "implies(...) member behind FleetFeeder::feed_global allocated in steady state"
    );
    let gate = &report.asserts[0];
    assert_eq!(gate.verdict, Verdict::Passed);
    assert_eq!(
        gate.fulfilled,
        (CHUNK * CHUNKS / 2) as u64,
        "every req tick spawns an obligation the next ack fulfils"
    );
}
