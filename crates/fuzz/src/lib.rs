//! `cesc-fuzz` — deterministic differential fuzzing for the CESC
//! toolchain.
//!
//! The crate closes the loop between the four independent execution
//! paths the workspace already ships:
//!
//! 1. the baseline (unoptimized) batch engine,
//! 2. the optimized compiled engine fed in arbitrary chunkings,
//! 3. the sharded monitor fleet (`cesc-par`), and
//! 4. the emitted-RTL interpreter (`cesc-rtl` co-simulation).
//!
//! [`gen`] produces seeded, structured random inputs: chart /
//! multiclock / assert documents, hostile byte strings, mutations of
//! valid sources and VCD dumps, and guard expressions. [`traces`]
//! produces traces over the generated alphabets that actually reach
//! accept states (witness-window splicing). [`oracle`] runs one
//! `(spec × trace × chunking × jobs)` case through all four paths and
//! reports the first disagreement; its [`oracle::total`] module checks
//! panic-freedom (errors are fine, unwinding is not) of the chart
//! parser, expression parser and VCD reader. [`campaign`] drives
//! bounded, fully deterministic campaigns and minimizes any failure;
//! [`corpus`] serializes minimized failures into `tests/corpus/`
//! entries that replay as ordinary unit tests.
//!
//! Everything is seeded: the same seed and case budget replays the
//! same campaign byte-for-byte, so CI runs are reproducible and a
//! reported failure can be re-run locally with nothing but the seed.

#![warn(missing_docs)]

pub mod campaign;
pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod traces;

pub use campaign::{run_differential, run_parser_sweep, run_vcd_sweep, CampaignConfig, CampaignReport, SweepReport};
pub use corpus::{replay_dir, replay_file, CorpusEntry, CorpusKind, ReplaySummary};
pub use gen::SpecGen;
pub use oracle::{run_case, run_multiclock_case, CaseInput, CaseReport, Discrepancy};
