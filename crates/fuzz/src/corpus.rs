//! The checked-in regression corpus: minimized fuzz failures (and
//! hand-seeded hostile inputs) replayed as ordinary unit tests.
//!
//! Entry kinds are keyed by file extension:
//!
//! * `.cesc` — specification source. If the file starts with the
//!   `cesc-fuzz differential case` header, it embeds a trace and
//!   execution geometry and is replayed through the full four-way
//!   differential oracle (which must agree); if it starts with the
//!   `cesc-prove counterexample` header, it names a statically-refuted
//!   `implies(...)` assert and replaying re-runs the prover, which
//!   must refute it again with an engine-confirmed counterexample;
//!   otherwise it is driven through the chart parser, which must
//!   return without panicking.
//! * `.expr` — guard expressions, one per line, through the
//!   expression parser.
//! * `.vcd` / `.bin` — bytes through the streaming VCD reader (and
//!   the chart parser, since hostile bytes are hostile everywhere).
//!
//! A differential entry is self-contained:
//!
//! ```text
//! // cesc-fuzz differential case
//! // note: <free text>
//! // chunk: 4 jobs: 3
//! // trace: 1,8000000000000000,0
//! scesc ... { ... }
//! ```

use std::io;
use std::path::{Path, PathBuf};

use cesc_expr::Valuation;
use cesc_trace::Trace;

use crate::oracle::{self, total, CaseInput};

/// The header line marking a self-contained differential entry.
pub const DIFFERENTIAL_HEADER: &str = "// cesc-fuzz differential case";

/// The header line marking a statically-refuted assert reproducer
/// (written by `cesc prove --corpus-out`).
pub const PROVE_HEADER: &str = "// cesc-prove counterexample";

/// What kind of pipeline input a corpus entry replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusKind {
    /// A full `(spec × trace × chunking × jobs)` differential case.
    Differential,
    /// A spec whose named `implies(...)` assert the prover refutes.
    Prove,
    /// Hostile chart-parser input.
    ChartParser,
    /// Hostile expression-parser input.
    ExprParser,
    /// Hostile VCD-reader input.
    Vcd,
}

impl CorpusKind {
    fn extension(self) -> &'static str {
        match self {
            CorpusKind::Differential | CorpusKind::Prove | CorpusKind::ChartParser => "cesc",
            CorpusKind::ExprParser => "expr",
            CorpusKind::Vcd => "vcd",
        }
    }
}

/// One corpus entry ready to be written to disk.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// File stem (extension comes from the kind).
    pub name: String,
    /// Replay kind.
    pub kind: CorpusKind,
    /// File contents.
    pub bytes: Vec<u8>,
}

/// Serializes a differential case into the self-contained entry
/// format.
pub fn encode_differential(input: &CaseInput, note: &str) -> Vec<u8> {
    let trace_hex: Vec<String> = input.trace.iter().map(|v| format!("{:x}", v.bits())).collect();
    let mut out = String::new();
    out.push_str(DIFFERENTIAL_HEADER);
    out.push('\n');
    for line in note.lines() {
        out.push_str("// note: ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!("// chunk: {} jobs: {}\n", input.chunk, input.jobs));
    out.push_str(&format!("// trace: {}\n", trace_hex.join(",")));
    out.push_str(&input.source);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.into_bytes()
}

/// Parses a self-contained differential entry back into a
/// [`CaseInput`]. Returns `None` when `text` does not carry the
/// header or the header fields are malformed.
pub fn decode_differential(text: &str) -> Option<CaseInput> {
    if !text.starts_with(DIFFERENTIAL_HEADER) {
        return None;
    }
    let mut chunk = 1usize;
    let mut jobs = 1usize;
    let mut trace = Trace::new();
    let mut source = String::new();
    let mut in_header = true;
    for line in text.lines() {
        if in_header {
            if line == DIFFERENTIAL_HEADER || line.starts_with("// note:") {
                continue;
            }
            if let Some(rest) = line.strip_prefix("// chunk: ") {
                let mut it = rest.split_whitespace();
                chunk = it.next()?.parse().ok()?;
                if it.next() != Some("jobs:") {
                    return None;
                }
                jobs = it.next()?.parse().ok()?;
                continue;
            }
            if let Some(rest) = line.strip_prefix("// trace: ") {
                for tok in rest.split(',').filter(|t| !t.trim().is_empty()) {
                    let bits = u128::from_str_radix(tok.trim(), 16).ok()?;
                    trace.push(Valuation::from_bits(bits));
                }
                in_header = false;
                continue;
            }
            // any other line ends the header
            in_header = false;
        }
        source.push_str(line);
        source.push('\n');
    }
    Some(CaseInput {
        source,
        trace,
        chunk,
        jobs,
    })
}

/// Builds a prove-counterexample corpus entry: the full spec source
/// prefixed with the [`PROVE_HEADER`] and the refuted assert's name.
/// Header lines are ordinary `//` comments, so the payload stays a
/// valid `.cesc` document.
pub fn prove_entry(source: &str, assert_name: &str) -> CorpusEntry {
    let mut text = String::new();
    text.push_str(PROVE_HEADER);
    text.push('\n');
    text.push_str(&format!("// assert: {assert_name}\n"));
    text.push_str(source);
    if !text.ends_with('\n') {
        text.push('\n');
    }
    CorpusEntry {
        name: format!("prove-{assert_name}"),
        kind: CorpusKind::Prove,
        bytes: text.into_bytes(),
    }
}

/// Replays a prove-counterexample entry: re-runs the prover on the
/// embedded spec and demands the named assert is refuted again, with a
/// counterexample the dynamic engine confirms.
///
/// # Errors
///
/// Returns a description when the header is malformed, the spec no
/// longer loads, the assert is now proved, or the counterexample
/// fails to replay.
pub fn replay_prove(text: &str) -> Result<(), String> {
    let name = text
        .lines()
        .find_map(|l| l.strip_prefix("// assert: "))
        .map(str::trim)
        .ok_or_else(|| "prove entry is missing its `// assert: NAME` line".to_owned())?;
    let specs = cesc_spec::SpecSet::load(text).map_err(|e| format!("spec no longer loads: {e}"))?;
    let idx = match specs.resolve(name) {
        Ok(cesc_spec::TargetRef::Assert(i)) => i,
        Ok(_) => return Err(format!("`{name}` is no longer an implies(...) assert")),
        Err(e) => return Err(format!("assert `{name}`: {e}")),
    };
    let report = specs.proof(idx).map_err(|e| format!("prover failed on `{name}`: {e}"))?;
    let cx = report
        .counterexample()
        .ok_or_else(|| format!("assert `{name}` is now PROVED — stale reproducer"))?;
    if !cx.confirmed {
        return Err(format!("counterexample for `{name}` no longer replays in the engine"));
    }
    Ok(())
}

/// Writes `entry` into `dir` (created if missing); returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_entry(dir: &Path, entry: &CorpusEntry) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.{}", entry.name, entry.kind.extension()));
    std::fs::write(&path, &entry.bytes)?;
    Ok(path)
}

/// Aggregate of one corpus replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Files replayed.
    pub files: usize,
    /// Differential entries (oracle agreed on each).
    pub differential: usize,
    /// Prove-counterexample entries (prover refuted each again).
    pub prove: usize,
    /// Hostile chart-parser entries.
    pub parser: usize,
    /// Expression entries (individual lines).
    pub exprs: usize,
    /// VCD/bytes entries.
    pub vcd: usize,
}

/// Replays one corpus file according to its extension.
///
/// # Errors
///
/// Returns a description when a parser panics, a differential entry's
/// legs disagree, or the file cannot be read.
pub fn replay_file(path: &Path, summary: &mut ReplaySummary) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let name = path.display();
    summary.files += 1;
    match path.extension().and_then(|e| e.to_str()) {
        Some("cesc") => {
            let text = String::from_utf8_lossy(&bytes).into_owned();
            if text.starts_with(PROVE_HEADER) {
                replay_prove(&text).map_err(|e| format!("{name}: {e}"))?;
                summary.prove += 1;
                Ok(())
            } else if let Some(input) = decode_differential(&text) {
                match oracle::run_case(&input) {
                    Ok(_) => {
                        summary.differential += 1;
                        Ok(())
                    }
                    Err(d) => Err(format!("{name}: differential regression: {d}")),
                }
            } else {
                total::chart_parser(&bytes).map_err(|p| format!("{name}: panicked: {p}"))?;
                summary.parser += 1;
                Ok(())
            }
        }
        Some("expr") => {
            let text = String::from_utf8_lossy(&bytes).into_owned();
            for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with("//")) {
                total::expr_parser(line).map_err(|p| format!("{name}: panicked on {line:?}: {p}"))?;
                summary.exprs += 1;
            }
            Ok(())
        }
        Some("vcd") | Some("bin") => {
            total::vcd_reader(&bytes).map_err(|p| format!("{name}: panicked: {p}"))?;
            total::chart_parser(&bytes).map_err(|p| format!("{name}: panicked (chart): {p}"))?;
            summary.vcd += 1;
            Ok(())
        }
        _ => Ok(()), // README and friends
    }
}

/// Replays every entry under `dir` (sorted, for stable failure
/// ordering).
///
/// # Errors
///
/// Returns the first replay failure.
pub fn replay_dir(dir: &Path) -> Result<ReplaySummary, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    let mut summary = ReplaySummary::default();
    for p in &paths {
        replay_file(p, &mut summary)?;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_roundtrip() {
        let input = CaseInput {
            source: "scesc hs on clk { instances { M } events { a, b } tick { M: a } \
                     tick { M: b } cause a -> b; }\n"
                .to_owned(),
            trace: Trace::from_elements([
                Valuation::from_bits(0x1),
                Valuation::from_bits(0x2),
                Valuation::from_bits(0x0),
            ]),
            chunk: 2,
            jobs: 3,
        };
        let bytes = encode_differential(&input, "sample\nsecond line");
        let text = String::from_utf8(bytes).unwrap();
        let back = decode_differential(&text).expect("decodes");
        assert_eq!(back.source, input.source);
        assert_eq!(back.chunk, 2);
        assert_eq!(back.jobs, 3);
        assert_eq!(back.trace.len(), 3);
        assert_eq!(back.trace[1].bits(), 0x2);
        // and the roundtripped case actually replays green
        assert!(oracle::run_case(&back).is_ok());
    }

    #[test]
    fn non_differential_text_is_rejected() {
        assert!(decode_differential("scesc x on clk { }").is_none());
        assert!(decode_differential("").is_none());
    }

    #[test]
    fn write_and_replay_an_entry() {
        let dir = std::env::temp_dir().join(format!("cesc-fuzz-corpus-{}", std::process::id()));
        let entry = CorpusEntry {
            name: "parse-smoke".into(),
            kind: CorpusKind::ChartParser,
            bytes: b"scesc broken {".to_vec(),
        };
        let path = write_entry(&dir, &entry).unwrap();
        let mut summary = ReplaySummary::default();
        replay_file(&path, &mut summary).unwrap();
        assert_eq!(summary.parser, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
