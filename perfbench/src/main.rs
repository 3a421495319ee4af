//! Bytes-to-verdict benchmark of `cesc check`.
//!
//! ```text
//! perfbench gen --workload NAME --seed N --dir DIR
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//! ```
//!
//! `gen` writes the workload's `spec.cesc`, `dump.vcd`, the step-wise
//! reference verdicts and the dump's digest and totals into `DIR`.
//! `run` checks that dump for `S` seconds (plus a few checks in fresh
//! processes of this program, for peak memory) and prints two JSON lines:
//! the run's context (every metric's spread included), then the result
//! (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. `run.py`
//! drives both; see `README.md`.

mod json;
mod measure;
mod segments;
mod stats;
mod sys;
mod workloads;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use measure::{Inputs, Record};
use stats::num;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = args
        .split_first()
        .ok_or("usage: perfbench gen|run --workload NAME ...")?;
    let flags = parse_flags(flags)?;
    let flag = |k: &str| {
        flags
            .get(k)
            .map(String::as_str)
            .ok_or(format!("missing --{k}"))
    };
    let workload = workloads::workload(flag("workload")?)?;
    let seed: u64 = flag("seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let dir = PathBuf::from(flag("dir")?);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = workload.jobs.min(nproc);
    match command.as_str() {
        "gen" => {
            generate(workload, seed, &dir)?;
            Ok(true)
        }
        "run" => {
            let seconds: f64 = flag("seconds")?
                .parse()
                .map_err(|_| "--seconds takes a number")?;
            let trace = match flag("trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
            };
            let (inputs, digest) = load_inputs(&dir, workload.name, seed)?;
            let record = if trace {
                measure::traced(&inputs, jobs, seconds, &dir.join("spans.json"))?
            } else {
                measure::untraced(&inputs, jobs, seconds, || {
                    fresh_check(workload.name, seed, &dir)
                })?
            };
            let context = format!(
                "{{\"context\":{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{trace},\
                 \"nproc\":{nproc},\"jobs\":{jobs},\"passes\":{},\"dump\":{{\"digest\":\"{digest}\",\
                 \"bytes\":{},\"steps\":{},\"samples\":{}}},\"targets\":{},\"notes\":[{}],\
                 \"spread\":{{{}}}}}}}",
                workload.name,
                record.passes,
                inputs.bytes,
                inputs.steps,
                inputs.samples,
                inputs.reference.len(),
                record
                    .notes
                    .iter()
                    .map(|n| format!("\"{}\"", n.replace('"', "'")))
                    .collect::<Vec<_>>()
                    .join(","),
                record
                    .metrics
                    .iter()
                    .map(|m| format!("\"{}\":{}", m.name, m.spread_json()))
                    .collect::<Vec<_>>()
                    .join(",")
            );
            println!("{context}");
            println!("{}", result_line(&record));
            Ok(record.correct)
        }
        // internal: one check in this fresh process, for `run`
        "fresh" => {
            let (inputs, _) = load_inputs(&dir, workload.name, seed)?;
            let (peak, failed) = measure::fresh_check(&inputs, jobs);
            println!("{peak} {failed}");
            Ok(true)
        }
        other => Err(format!("unknown command `{other}` (gen, run or fresh)")),
    }
}

/// Runs `fresh` in a new process of this program: one check, its peak
/// resident set in bytes and its failed targets.
fn fresh_check(name: &str, seed: u64, dir: &Path) -> Result<(u64, usize), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["fresh", "--workload", name, "--seed", &seed.to_string()])
        .arg("--dir")
        .arg(dir)
        .output()
        .map_err(|e| format!("cannot start a fresh check: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = text
        .split_once(' ')
        .and_then(|(peak, failed)| Some((peak.parse().ok()?, failed.trim().parse().ok()?)));
    match parsed {
        Some(result) if out.status.success() => Ok(result),
        _ => Err(format!(
            "fresh check failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} takes a value"))?;
        flags.insert(key.to_owned(), value.clone());
    }
    Ok(flags)
}

/// Generates the workload into `dir` (untimed: nothing here is part of
/// any metric).
fn generate(workload: workloads::Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let name = workload.name;
    let g = (workload.generate)(seed)?;
    let digest = format!("fnv1a64:{:016x}", workloads::digest(&g.vcd));
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let write = |file: &str, bytes: &[u8]| {
        std::fs::write(dir.join(file), bytes).map_err(|e| format!("cannot write {file}: {e}"))
    };
    write("spec.cesc", g.spec.as_bytes())?;
    write("dump.vcd", &g.vcd)?;
    write(
        "reference.txt",
        workloads::write_reference(&g.reference).as_bytes(),
    )?;
    write(
        "meta.txt",
        format!(
            "workload {name}\nseed {seed}\ndigest {digest}\nbytes {}\nsteps {}\nsamples {}\n",
            g.vcd.len(),
            g.steps,
            g.samples
        )
        .as_bytes(),
    )?;
    println!(
        "{name} seed {seed}: dump {digest}, {} bytes, {} steps, {} samples, {} targets",
        g.vcd.len(),
        g.steps,
        g.samples,
        g.reference.len()
    );
    Ok(())
}

/// Reads back what [`generate`] wrote, refusing a directory generated
/// for another workload or seed.
fn load_inputs(dir: &Path, name: &str, seed: u64) -> Result<(Inputs, String), String> {
    let read = |file: &str| {
        std::fs::read_to_string(dir.join(file)).map_err(|e| format!("cannot read {file}: {e}"))
    };
    let meta_text = read("meta.txt")?;
    let meta: HashMap<&str, &str> = meta_text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .collect();
    let field = |k: &str| meta.get(k).copied().ok_or(format!("meta.txt lacks `{k}`"));
    let count = |k: &str| -> Result<u64, String> {
        field(k)?
            .parse()
            .map_err(|_| format!("meta.txt: bad `{k}`"))
    };
    if field("workload")? != name || count("seed")? != seed {
        return Err(format!(
            "{} holds another workload or seed; run gen first",
            dir.display()
        ));
    }
    let vcd = dir.join("dump.vcd");
    let bytes = std::fs::metadata(&vcd).map_err(|e| e.to_string())?.len();
    if bytes != count("bytes")? {
        return Err("dump.vcd is not the generated dump".to_owned());
    }
    let inputs = Inputs {
        spec: read("spec.cesc")?,
        vcd,
        bytes,
        steps: count("steps")?,
        samples: count("samples")?,
        reference: workloads::read_reference(&read("reference.txt")?)?,
    };
    Ok((inputs, field("digest")?.to_owned()))
}

fn result_line(record: &Record) -> String {
    let metrics: Vec<String> = record
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        record.correct,
        record.attempted,
        record.failed,
        metrics.join(",")
    )
}
