//! Replays the checked-in fuzz regression corpus (`tests/corpus/`):
//! every minimized campaign failure and hand-seeded hostile input runs
//! as an ordinary test, so a once-found bug stays pinned forever. The
//! replay rules (by file extension) live in `cesc_fuzz::corpus`; the
//! verdict cases (dumps that pin an expected `cesc check` report) are
//! replayed here, through the binary's own `check_fleet` route.

use std::path::PathBuf;

use cesc::cli::{check_fleet, CheckOptions};
use cesc::fuzz::corpus::{replay_dir, replay_file, ReplaySummary};

/// First line of a `.vcd` corpus entry that pins a verdict. The rest
/// of that `$comment` block holds `spec: ` lines (the spec, one source
/// line each) and `expect: ` lines (each must be a line of the
/// `cesc check --all-charts` text report over the dump).
const VERDICT_HEADER: &str = "$comment cesc-check verdict case";

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_replays_clean() {
    let summary = replay_dir(&corpus_dir()).expect("corpus replay found a regression");
    // the hand-seeded entries guarantee a floor on each replay family;
    // minimized campaign failures only add to these
    assert!(summary.files >= 12, "corpus went missing: {summary:?}");
    assert!(summary.differential >= 3, "{summary:?}");
    assert!(summary.prove >= 2, "{summary:?}");
    assert!(summary.parser >= 3, "{summary:?}");
    assert!(summary.exprs >= 10, "{summary:?}");
    assert!(summary.vcd >= 3, "{summary:?}");
}

#[test]
fn replay_reports_file_and_failure_context() {
    // a differential entry whose legs cannot agree because the source
    // no longer parses must fail with the file named, not panic
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("corpus-replay-neg");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stale.cesc");
    // header claims a trace, body parses, but the verdicts trivially
    // agree — replay must succeed and count it as differential
    std::fs::write(
        &path,
        "// cesc-fuzz differential case\n// chunk: 1 jobs: 1\n// trace: 1,0\n\
         scesc t on clk { instances { M } events { a } tick { M: a } }\n",
    )
    .unwrap();
    let mut summary = ReplaySummary::default();
    replay_file(&path, &mut summary).unwrap();
    assert_eq!(summary.differential, 1);

    // unreadable path: an error naming the path, not a panic
    let missing = dir.join("does-not-exist.cesc");
    let err = replay_file(&missing, &mut ReplaySummary::default()).unwrap_err();
    assert!(err.contains("does-not-exist"), "{err}");
}

#[test]
fn verdict_cases_replay_through_check_fleet() {
    let mut cases = 0;
    for entry in std::fs::read_dir(corpus_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("vcd") {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        if !text.starts_with(VERDICT_HEADER) {
            continue;
        }
        let name = path.display();
        let comment = text.lines().take_while(|l| l.trim() != "$end");
        let (mut spec, mut expect) = (String::new(), Vec::new());
        for line in comment {
            if let Some(src) = line.strip_prefix("spec: ") {
                spec.push_str(src);
                spec.push('\n');
            } else if let Some(want) = line.strip_prefix("expect: ") {
                expect.push(want);
            }
        }
        assert!(!expect.is_empty(), "{name}: no `expect:` line");
        let outcome = check_fleet(
            &spec,
            &[],
            true,
            bytes.as_slice(),
            None,
            &CheckOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        for want in expect {
            assert!(
                outcome.output.lines().any(|l| l == want),
                "{name}: report lacks `{want}`:\n{}",
                outcome.output
            );
        }
        cases += 1;
    }
    assert!(cases >= 1, "verdict cases went missing");
}
