//! VCD (Value Change Dump, IEEE 1364) import/export for clocked traces.
//!
//! The paper's monitors plug into a simulation environment (Fig 4); in
//! practice simulator output reaches offline checkers as VCD waveforms.
//! [`write_vcd`] dumps a [`Trace`] (events/props as 1-bit wires plus an
//! explicit clock), and [`read_vcd`] samples a VCD back into a trace at
//! each rising clock edge — so monitors synthesized by `cesc-core` can
//! check waveforms from any HDL simulator.
//!
//! Reading is *streaming*: [`GlobalVcdStream`] samples any number of
//! clocks and yields [`GlobalStep`] chunks decoded from any
//! [`io::BufRead`], so a multi-GB dump is checked in constant memory —
//! neither the VCD text nor the decoded trace is ever resident in
//! full. The text header is read line by line; the body is scanned as
//! bytes in place in the reader's buffer (no per-line `String`, no
//! UTF-8 validation), with identifier codes resolved through a direct
//! table. `docs/VCD.md` is the normative statement of the accepted
//! subset. A single-clock read is a one-clock plan through the same
//! reader; [`read_vcd`] drains one into a [`Trace`]. The `&str`
//! constructor is a thin wrapper over the byte-slice reader.

use std::fmt::Write as _;
use std::io::{self, BufRead};

use cesc_expr::{Alphabet, SymbolId, Valuation};

use crate::clock::{ClockId, ClockSet};
use crate::global::{GlobalRun, GlobalStep};
use crate::trace::Trace;

/// Options for [`write_vcd`] / [`write_vcd_global`].
#[derive(Debug, Clone)]
pub struct VcdWriteOptions {
    /// Name of the generated clock signal ([`write_vcd`] only;
    /// [`write_vcd_global`] names clocks after the [`ClockSet`]).
    pub clock_name: String,
    /// Half-period of the clock in timescale units (full period is
    /// `2 * half_period`).
    pub half_period: u64,
    /// Timescale declaration, e.g. `"1ns"`.
    pub timescale: String,
    /// Module scope name in the VCD hierarchy.
    pub scope: String,
}

impl Default for VcdWriteOptions {
    fn default() -> Self {
        VcdWriteOptions {
            clock_name: "clk".to_owned(),
            half_period: 5,
            timescale: "1ns".to_owned(),
            scope: "cesc_monitor".to_owned(),
        }
    }
}

fn id_code(mut n: usize) -> String {
    // printable VCD identifier codes: '!'..'~'
    let mut s = String::new();
    loop {
        s.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

/// Serialises `trace` as VCD text. Tick `k` of the trace is sampled at
/// the rising edge at time `2k * half_period`.
///
/// # Examples
///
/// ```
/// use cesc_expr::{Alphabet, Valuation};
/// use cesc_trace::{write_vcd, VcdWriteOptions, Trace};
/// let mut ab = Alphabet::new();
/// let req = ab.event("req");
/// let t = Trace::from_elements([Valuation::of([req]), Valuation::empty()]);
/// let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
/// assert!(vcd.contains("$var wire 1"));
/// assert!(vcd.contains("req"));
/// ```
pub fn write_vcd(trace: &Trace, alphabet: &Alphabet, opts: &VcdWriteOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$date\n    cesc generated\n$end");
    let _ = writeln!(out, "$version\n    cesc-trace VCD writer\n$end");
    let _ = writeln!(out, "$timescale {} $end", opts.timescale);
    let _ = writeln!(out, "$scope module {} $end", opts.scope);
    let clk_code = id_code(0);
    let _ = writeln!(out, "$var wire 1 {clk_code} {} $end", opts.clock_name);
    let codes: Vec<String> = alphabet
        .iter()
        .map(|(id, sym)| {
            let code = id_code(id.index() + 1);
            let _ = writeln!(out, "$var wire 1 {code} {} $end", sym.name());
            code
        })
        .collect();
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // initial values
    let _ = writeln!(out, "#0");
    let _ = writeln!(out, "$dumpvars");
    let first = trace.get(0).unwrap_or_else(Valuation::empty);
    // no ticks → the clock never rises and nothing is sampled back
    let clk0 = if trace.is_empty() { '0' } else { '1' };
    let _ = writeln!(out, "{clk0}{clk_code}");
    for (id, _) in alphabet.iter() {
        let bit = if first.contains(id) { '1' } else { '0' };
        let _ = writeln!(out, "{bit}{}", codes[id.index()]);
    }
    let _ = writeln!(out, "$end");

    let mut prev = first;
    for k in 0..trace.len() {
        let rise = 2 * k as u64 * opts.half_period;
        let fall = rise + opts.half_period;
        if k > 0 {
            let v = trace[k];
            let _ = writeln!(out, "#{rise}");
            for (id, _) in alphabet.iter() {
                let now = v.contains(id);
                if now != prev.contains(id) {
                    let bit = if now { '1' } else { '0' };
                    let _ = writeln!(out, "{bit}{}", codes[id.index()]);
                }
            }
            let _ = writeln!(out, "1{clk_code}");
            prev = v;
        }
        let _ = writeln!(out, "#{fall}");
        let _ = writeln!(out, "0{clk_code}");
    }
    out
}

/// Serialises a multi-clock [`GlobalRun`] as VCD text: one 1-bit wire
/// per clock domain of `clocks` (named after the domains) plus one per
/// alphabet symbol. The tick of domain `c` at global time `t` becomes
/// a rising edge of `c`'s wire at VCD time `2t * half_period`, with
/// that domain's *owned* symbols (mask `owners[c]`) driven to the
/// tick's valuation just before the edge.
///
/// Owner masks say which symbols each domain drives; they should be
/// pairwise disjoint (when two domains tick the same instant, the
/// later-listed domain wins on shared symbols). Symbols owned by no
/// domain stay constant `0`.
///
/// Round-trip: [`GlobalVcdStream`] over the produced text with the
/// domains' names (and the same masks) recovers exactly the run's
/// ticks, at VCD times `2t * half_period`.
///
/// # Panics
///
/// Panics if `owners.len() != clocks.len()` or `half_period == 0` —
/// both are programming errors in the caller, not data errors.
pub fn write_vcd_global_to<W: io::Write>(
    w: &mut W,
    run: &GlobalRun,
    clocks: &ClockSet,
    alphabet: &Alphabet,
    owners: &[Valuation],
    opts: &VcdWriteOptions,
) -> io::Result<()> {
    assert_eq!(
        owners.len(),
        clocks.len(),
        "one owner mask per clock domain"
    );
    assert!(opts.half_period > 0, "half_period must be positive");
    writeln!(w, "$date\n    cesc generated\n$end")?;
    writeln!(w, "$version\n    cesc-trace VCD writer (global)\n$end")?;
    writeln!(w, "$timescale {} $end", opts.timescale)?;
    writeln!(w, "$scope module {} $end", opts.scope)?;
    let clock_codes: Vec<String> = clocks.iter().map(|(id, _)| id_code(id.index())).collect();
    for (id, d) in clocks.iter() {
        writeln!(w, "$var wire 1 {} {} $end", clock_codes[id.index()], d.name())?;
    }
    let sym_codes: Vec<String> = alphabet
        .iter()
        .map(|(id, _)| id_code(clocks.len() + id.index()))
        .collect();
    for (id, sym) in alphabet.iter() {
        writeln!(w, "$var wire 1 {} {} $end", sym_codes[id.index()], sym.name())?;
    }
    writeln!(w, "$upscope $end")?;
    writeln!(w, "$enddefinitions $end")?;

    writeln!(w, "#0")?;
    writeln!(w, "$dumpvars")?;
    for code in &clock_codes {
        writeln!(w, "0{code}")?;
    }
    for code in &sym_codes {
        writeln!(w, "0{code}")?;
    }
    writeln!(w, "$end")?;

    let mut prev_bits = 0u128;
    for step in run.iter() {
        let rise = 2 * step.time * opts.half_period;
        writeln!(w, "#{rise}")?;
        for &(clock, v) in &step.ticks {
            let own = owners[clock.index()].bits();
            let desired = v.bits() & own;
            let mut diff = (prev_bits ^ desired) & own;
            while diff != 0 {
                let i = diff.trailing_zeros() as usize;
                let bit = if desired >> i & 1 == 1 { '1' } else { '0' };
                writeln!(w, "{bit}{}", sym_codes[i])?;
                diff &= diff - 1;
            }
            prev_bits = (prev_bits & !own) | desired;
            writeln!(w, "1{}", clock_codes[clock.index()])?;
        }
        writeln!(w, "#{}", rise + opts.half_period)?;
        for &(clock, _) in &step.ticks {
            writeln!(w, "0{}", clock_codes[clock.index()])?;
        }
    }
    Ok(())
}

/// [`write_vcd_global_to`] into a `String` (convenience for tests and
/// small runs; prefer the writer form for bulk dumps).
pub fn write_vcd_global(
    run: &GlobalRun,
    clocks: &ClockSet,
    alphabet: &Alphabet,
    owners: &[Valuation],
    opts: &VcdWriteOptions,
) -> String {
    let mut out = Vec::new();
    write_vcd_global_to(&mut out, run, clocks, alphabet, owners, opts)
        .expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("VCD output is ASCII")
}

/// Error from the VCD reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VcdReadError {
    /// A `$var` declaration, timestamp or value change could not be
    /// parsed.
    Malformed {
        /// Line number (1-based) of the offending input.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// A requested clock signal is not declared in the VCD.
    MissingClock {
        /// The clock name that was looked for.
        name: String,
    },
    /// The underlying reader failed.
    Io {
        /// The I/O error's message.
        message: String,
    },
}

impl std::fmt::Display for VcdReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VcdReadError::Malformed { line, message } => {
                write!(f, "malformed VCD at line {line}: {message}")
            }
            VcdReadError::MissingClock { name } => {
                write!(f, "clock signal `{name}` not found in VCD")
            }
            VcdReadError::Io { message } => write!(f, "VCD read failed: {message}"),
        }
    }
}

impl std::error::Error for VcdReadError {}

#[cold]
fn malformed(line: usize, message: String) -> VcdReadError {
    VcdReadError::Malformed { line, message }
}

fn io_error(e: &io::Error) -> VcdReadError {
    VcdReadError::Io {
        message: e.to_string(),
    }
}

/// The separators of VCD text: ASCII space, tab, line feed, vertical
/// tab, form feed and carriage return.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r')
}

/// `s` without leading and trailing separators.
fn trim(mut s: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = s {
        if !is_space(*first) {
            break;
        }
        s = rest;
    }
    while let [rest @ .., last] = s {
        if !is_space(*last) {
            break;
        }
        s = rest;
    }
    s
}

/// The whitespace-separated tokens of `line`.
fn tokens(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    line.split(|&b| is_space(b)).filter(|t| !t.is_empty())
}

/// `s` for an error message (its bytes need not be UTF-8).
fn shown(s: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(s)
}

/// A byte for an error message: itself if printable ASCII, else hex.
fn shown_byte(b: u8) -> String {
    if b.is_ascii_graphic() {
        (b as char).to_string()
    } else {
        format!("\\x{b:02x}")
    }
}

/// Eight copies of byte `b`, one per lane of a `u64`.
const fn lanes(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// The value of 1 to 8 ASCII digits, or `None` if any byte is not a
/// digit. The digits are packed into one word and combined pairwise,
/// so the cost does not grow digit by digit.
#[inline]
fn digits8(s: &[u8]) -> Option<u64> {
    let mut word = [b'0'; 8];
    word[8 - s.len()..].copy_from_slice(s);
    let x = u64::from_le_bytes(word);
    // every lane in `0`..=`9`: high nibble 3, and still 3 after adding 6
    if x & lanes(0xF0) != lanes(0x30) || (x + lanes(0x06)) & lanes(0xF0) != lanes(0x30) {
        return None;
    }
    let x = x - lanes(b'0');
    let x = (x * 10 + (x >> 8)) & 0x00FF_00FF_00FF_00FF;
    let x = (x * 100 + (x >> 16)) & 0x0000_FFFF_0000_FFFF;
    Some((x * 10_000 + (x >> 32)) & 0xFFFF_FFFF)
}

/// Parses the text after `#` as a timestamp: decimal digits with an
/// optional leading `+`, at most `u64::MAX`.
fn parse_timestamp(rest: &[u8], lineno: usize) -> Result<u64, VcdReadError> {
    let digits = rest.strip_prefix(b"+").unwrap_or(rest);
    let t = match digits.len() {
        1..=8 => digits8(digits),
        9..=16 => {
            let (hi, lo) = digits.split_at(digits.len() - 8);
            digits8(hi).zip(digits8(lo)).map(|(hi, lo)| hi * 100_000_000 + lo)
        }
        0 => None,
        _ => digits.iter().try_fold(0u64, |t, &b| {
            let d = b.wrapping_sub(b'0');
            if d < 10 {
                t.checked_mul(10)?.checked_add(u64::from(d))
            } else {
                None
            }
        }),
    };
    t.ok_or_else(|| malformed(lineno, format!("bad timestamp `#{}`", shown(rest))))
}

/// Identifier codes are strings over the 94 printable ASCII bytes
/// `!`..`~`.
const CODE_RADIX: usize = 94;

/// Slots of the dense code table: every 1-byte code, then every 2-byte
/// code.
const DENSE_SLOTS: usize = CODE_RADIX + CODE_RADIX * CODE_RADIX;

/// The dense slot of a 1- or 2-byte code: its base-94 value (first byte
/// least significant, as [`id_code`] writes them), past the 94 1-byte
/// codes for a 2-byte one. `None` for any other length or a byte
/// outside `!`..`~`.
fn dense_slot(code: &[u8]) -> Option<usize> {
    let digit = |b: u8| (b'!'..=b'~').contains(&b).then(|| usize::from(b - b'!'));
    match *code {
        [a] => digit(a),
        [a, b] => Some(CODE_RADIX + digit(a)? + CODE_RADIX * digit(b)?),
        _ => None,
    }
}

/// The level of a vector change's bits: true iff any bit is `1`
/// (`x`/`z` bits read as "not 1").
fn vector_value(bits: &[u8], lineno: usize) -> Result<bool, VcdReadError> {
    let valid = |b: &&u8| matches!(b, b'0' | b'1' | b'x' | b'X' | b'z' | b'Z');
    match bits.iter().find(|b| !valid(b)) {
        Some(&bad) => Err(malformed(
            lineno,
            format!("invalid bit `{}` in vector change", shown_byte(bad)),
        )),
        None => Ok(bits.contains(&b'1')),
    }
}

/// What a watched identifier code drives.
#[derive(Debug, Clone, Copy)]
enum Watch {
    /// An alphabet symbol.
    Symbol(SymbolId),
    /// The requested clocks `clock_lists[start..end]` (several when two
    /// requested clocks share one VCD signal).
    Clocks { start: u32, end: u32 },
}

/// Identifier code → [`Watch`], with no hashing: a direct table over
/// every 1–2-byte code, and a sorted list for the rare longer (or
/// non-printable) watched codes. An unwatched code resolves to `None`.
#[derive(Debug)]
struct CodeTable {
    /// Per dense slot: `0` when unwatched, else `1 +` its `watches`
    /// index.
    dense: Vec<u32>,
    /// Every other watched code, sorted by its bytes.
    long: Vec<(Box<[u8]>, u32)>,
    watches: Vec<Watch>,
    clock_lists: Vec<u32>,
}

impl CodeTable {
    fn new() -> Self {
        CodeTable {
            dense: vec![0; DENSE_SLOTS],
            long: Vec::new(),
            watches: Vec::new(),
            clock_lists: Vec::new(),
        }
    }

    /// Points `code` at `watch`, replacing what it drove before.
    fn insert(&mut self, code: &[u8], watch: Watch) {
        self.watches.push(watch);
        let entry = self.watches.len() as u32;
        match dense_slot(code) {
            Some(slot) => self.dense[slot] = entry,
            None => match self.long.binary_search_by(|(k, _)| (**k).cmp(code)) {
                Ok(i) => self.long[i].1 = entry,
                Err(i) => self.long.insert(i, (code.into(), entry)),
            },
        }
    }

    /// What `code` drives, or `None` when it is unwatched. A non-ASCII
    /// byte in the code is an error naming `lineno`.
    #[inline]
    fn get(&self, code: &[u8], lineno: usize) -> Result<Option<Watch>, VcdReadError> {
        let entry = match dense_slot(code) {
            Some(slot) => self.dense[slot],
            None if !code.is_ascii() => return Err(non_ascii(code, lineno, "identifier code")),
            None if self.long.is_empty() => 0,
            None => self
                .long
                .binary_search_by(|(k, _)| (**k).cmp(code))
                .map_or(0, |i| self.long[i].1),
        };
        Ok(entry.checked_sub(1).map(|i| self.watches[i as usize]))
    }
}

#[cold]
fn non_ascii(text: &[u8], lineno: usize, what: &str) -> VcdReadError {
    malformed(lineno, format!("non-ASCII byte in {what} `{}`", shown(text)))
}

/// Reads `$var` declarations up to `$enddefinitions`, one line at a
/// time into `line`, and returns the code table of the requested
/// clocks and of every alphabet symbol present in the dump.
///
/// A declared name matches a clock or symbol either exactly or with a
/// vector range stripped — both `data[7:0]` and the separate-token
/// form `$var wire 8 ! data [7:0] $end` resolve to `data`. A
/// real-valued variable (`real`, `realtime`, `shortreal`) that matches
/// a clock or symbol is an error naming the signal: a real has no
/// logic level to sample. Unmatched reals are accepted and ignored.
/// When one code is declared for both a clock and a symbol, the clock
/// wins; a clock takes the first code declared under its name.
fn parse_header<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
    stats: &mut VcdStats,
    lineno: &mut usize,
    alphabet: &Alphabet,
    clocks: &[VcdClockSpec],
) -> Result<CodeTable, VcdReadError> {
    let mut clock_codes: Vec<Option<Vec<u8>>> = vec![None; clocks.len()];
    let mut table = CodeTable::new();
    loop {
        line.clear();
        match reader.read_until(b'\n', line) {
            Ok(0) => break,
            Ok(n) => {
                stats.bytes += n as u64;
                *lineno += 1;
            }
            Err(e) => return Err(io_error(&e)),
        }
        let toks: Vec<&[u8]> = tokens(line).collect();
        match toks.first().copied() {
            Some(b"$var") => {}
            Some(b"$enddefinitions") => break,
            _ => continue,
        }
        // $var var_type size code reference [range] $end
        if toks.len() < 5 || toks[3] == b"$end" || toks[4] == b"$end" {
            return Err(malformed(*lineno, "short $var declaration".to_owned()));
        }
        let (kind, code, name) = (toks[1], toks[3], toks[4]);
        let base = name.split(|&b| b == b'[').next().unwrap_or(name);
        let names_clock = |c: &VcdClockSpec| c.name.as_bytes() == name || c.name.as_bytes() == base;
        let is_clock = clocks.iter().any(names_clock);
        let symbol = [name, base]
            .into_iter()
            .find_map(|n| std::str::from_utf8(n).ok().and_then(|n| alphabet.lookup(n)));
        if (is_clock || symbol.is_some())
            && matches!(kind, b"real" | b"realtime" | b"shortreal")
        {
            let role = if is_clock { "clock" } else { "chart symbol" };
            return Err(malformed(
                *lineno,
                format!(
                    "`{}` is a `$var {}`, but the spec samples it as a {role}; \
                     only scalar and vector signals can be sampled",
                    shown(name),
                    shown(kind)
                ),
            ));
        }
        if is_clock {
            for (slot, clock) in clock_codes.iter_mut().zip(clocks) {
                if slot.is_none() && names_clock(clock) {
                    *slot = Some(code.to_vec());
                }
            }
        } else if let Some(id) = symbol {
            table.insert(code, Watch::Symbol(id));
        }
    }
    // clock codes go in last so they win over a symbol sharing the code
    for (i, clock) in clocks.iter().enumerate() {
        let code = clock_codes[i].as_deref().ok_or_else(|| VcdReadError::MissingClock {
            name: clock.name.clone(),
        })?;
        if clock_codes[..i].iter().any(|c| c.as_deref() == Some(code)) {
            continue; // listed with the first clock on this code
        }
        let start = table.clock_lists.len() as u32;
        for (j, other) in clock_codes.iter().enumerate().skip(i) {
            if other.as_deref() == Some(code) {
                table.clock_lists.push(j as u32);
            }
        }
        let end = table.clock_lists.len() as u32;
        table.insert(code, Watch::Clocks { start, end });
    }
    Ok(table)
}

/// One clock a [`GlobalVcdStream`] samples on, optionally with a mask
/// restricting which symbols its ticks carry (a multi-clock chart's
/// local monitor should only see its own chart's signals).
#[derive(Debug, Clone)]
pub struct VcdClockSpec {
    name: String,
    mask: Option<Valuation>,
}

impl VcdClockSpec {
    /// A clock whose ticks sample every alphabet symbol.
    pub fn new(name: &str) -> Self {
        VcdClockSpec {
            name: name.to_owned(),
            mask: None,
        }
    }

    /// A clock whose ticks carry only the symbols in `mask`.
    pub fn masked(name: &str, mask: Valuation) -> Self {
        VcdClockSpec {
            name: name.to_owned(),
            mask: Some(mask),
        }
    }

    /// The clock signal's name in the VCD.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The symbol mask, if any.
    pub fn mask(&self) -> Option<Valuation> {
        self.mask
    }
}

/// What a [`GlobalVcdStream`] has consumed and produced so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VcdStats {
    /// Bytes taken from the reader, header included. At end of input
    /// this is the dump's length.
    pub bytes: u64,
    /// Value-change lines read after the header (scalar, vector and
    /// real; `$dumpvars` blocks included).
    pub value_changes: u64,
    /// Of those, the changes dropped because no requested clock or
    /// alphabet symbol watches their identifier code.
    pub skipped_changes: u64,
    /// Clock-edge samples produced: one per tick of every step.
    pub samples: u64,
}

/// The body decoder: every piece of [`GlobalVcdStream`] state except
/// the reader and its line carry, so a line borrowed from the reader's
/// buffer can be decoded in place.
#[derive(Debug)]
struct Decoder {
    codes: CodeTable,
    /// Per clock: symbol mask its ticks carry (`u128::MAX` = all).
    masks: Vec<u128>,
    current: Valuation,
    levels: Vec<bool>,
    /// Clocks that rose at the current timestamp; their shared step is
    /// emitted when the timestamp advances (or input ends).
    pending: Vec<bool>,
    any_pending: bool,
    /// Recycled tick vectors: [`GlobalVcdStream::next_chunk`] reclaims
    /// the caller's previous chunk's `ticks` allocations here and
    /// [`Decoder::flush`] reuses them, so steady-state streaming
    /// allocates nothing per step (pinned by the workspace
    /// counting-allocator test).
    spare: Vec<Vec<(ClockId, Valuation)>>,
    cur_time: u64,
    lineno: usize,
    /// Inside a `$comment` whose `$end` has not been read yet.
    in_comment: bool,
    stats: VcdStats,
}

impl Decoder {
    /// Emits the clocks that rose at the current instant as one step,
    /// reusing a recycled tick vector when one is available.
    #[inline]
    fn flush(&mut self, buf: &mut Vec<GlobalStep>) {
        if !self.any_pending {
            return;
        }
        let mut ticks = self.spare.pop().unwrap_or_default();
        for (i, p) in self.pending.iter_mut().enumerate() {
            if std::mem::take(p) {
                ticks.push((
                    ClockId::from_index(i),
                    Valuation::from_bits(self.current.bits() & self.masks[i]),
                ));
            }
        }
        self.stats.samples += ticks.len() as u64;
        buf.push(GlobalStep {
            time: self.cur_time,
            ticks,
        });
        self.any_pending = false;
    }

    /// Decodes one body line (its line terminator stripped or not).
    /// Scalar changes and timestamps, nearly every line of a dump, are
    /// decoded here; the rest goes to [`Decoder::other_line`].
    #[inline]
    fn line(&mut self, raw: &[u8], buf: &mut Vec<GlobalStep>) -> Result<(), VcdReadError> {
        self.lineno += 1;
        let line = trim(raw);
        match line {
            _ if self.in_comment => {
                self.in_comment = !tokens(line).any(|t| t == b"$end");
                Ok(())
            }
            [value @ (b'0' | b'1' | b'x' | b'X' | b'z' | b'Z'), rest @ ..] => {
                let code = trim(rest);
                if code.is_empty() {
                    return Err(malformed(
                        self.lineno,
                        "scalar change missing identifier".to_owned(),
                    ));
                }
                self.change(code, |_| Ok(*value == b'1'))
            }
            [b'#', rest @ ..] => {
                let t = parse_timestamp(trim(rest), self.lineno)?;
                if t < self.cur_time {
                    return Err(malformed(
                        self.lineno,
                        format!("timestamp #{t} goes backwards (after #{})", self.cur_time),
                    ));
                }
                if t > self.cur_time {
                    // a pending step belongs to the instant it was
                    // sampled at: flush before the time moves on
                    self.flush(buf);
                    self.cur_time = t;
                }
                Ok(())
            }
            _ => self.other_line(line),
        }
    }

    /// Decodes a body line that is neither a scalar change nor a
    /// timestamp: blank, a directive, a vector or real change, or
    /// malformed.
    #[inline(never)]
    fn other_line(&mut self, line: &[u8]) -> Result<(), VcdReadError> {
        let Some((&first, rest)) = line.split_first() else {
            return Ok(());
        };
        match first {
            b'b' | b'B' => {
                // b<bits> <code>; x/z bits are "not 1", i.e. false
                let mut toks = tokens(rest);
                let bits = toks.next().unwrap_or_default();
                let Some(code) = toks.next() else {
                    return Err(malformed(
                        self.lineno,
                        "vector change missing identifier".to_owned(),
                    ));
                };
                self.change(code, |lineno| vector_value(bits, lineno))
            }
            b'r' | b'R' => {
                // `r<real> <code>`: the header rejects reals the spec
                // watches, so every real change belongs to an
                // unwatched signal
                self.stats.value_changes += 1;
                self.stats.skipped_changes += 1;
                Ok(())
            }
            b'$' => {
                // directives; `$dumpvars` bodies are value changes
                let mut toks = tokens(line);
                if toks.next() == Some(b"$comment") && !toks.any(|t| t == b"$end") {
                    self.in_comment = true;
                }
                Ok(())
            }
            other if other.is_ascii() => Err(malformed(
                self.lineno,
                format!("unsupported value change `{}`", shown_byte(other)),
            )),
            _ => Err(non_ascii(line, self.lineno, "line")),
        }
    }

    /// Applies a value change to `code`. `value` is only consulted —
    /// and a malformed value only reported — when the code is watched.
    #[inline]
    fn change(
        &mut self,
        code: &[u8],
        value: impl FnOnce(usize) -> Result<bool, VcdReadError>,
    ) -> Result<(), VcdReadError> {
        self.stats.value_changes += 1;
        match self.codes.get(code, self.lineno)? {
            None => self.stats.skipped_changes += 1,
            Some(Watch::Symbol(id)) => {
                if value(self.lineno)? {
                    self.current.insert(id);
                } else {
                    self.current.remove(id);
                }
            }
            Some(Watch::Clocks { start, end }) => {
                let value = value(self.lineno)?;
                for &ci in &self.codes.clock_lists[start as usize..end as usize] {
                    let ci = ci as usize;
                    if value && !self.levels[ci] {
                        self.pending[ci] = true;
                        self.any_pending = true;
                    }
                    self.levels[ci] = value;
                }
            }
        }
        Ok(())
    }
}

/// Streaming VCD reader: parses the header eagerly, then samples every
/// requested clock's rising edges and yields [`GlobalStep`] chunks in
/// caller-sized batches — the input side of every `cesc check` route.
/// A single-clock check is a one-clock plan; [`read_vcd`] is the
/// convenience wrapper that drains one into a [`Trace`].
///
/// The reader scans the body's lines in place in the [`io::BufRead`]'s
/// own buffer — a `BufReader<File>` for dumps on disk, a byte slice for
/// in-memory text — copying only a line that straddles two buffer
/// fills, so resident memory is one buffer plus one decoded chunk,
/// regardless of dump size. Identifier codes resolve through a direct
/// table, and a change to a code no clock or symbol watches is dropped
/// before its value is looked at. `docs/VCD.md` states the accepted
/// subset and the error each malformed form gives.
///
/// Clock `i` of the constructor's list becomes [`ClockId`] index `i`
/// in the produced steps, so a consumer whose locals are listed in the
/// same order can use an identity binding. Step times are VCD
/// timestamps. Clocks rising at the same timestamp share one step
/// (ticks ascending by clock index); each tick's valuation is the
/// signal state after all changes of that timestamp, restricted to the
/// clock's mask.
///
/// # Examples
///
/// ```
/// use cesc_expr::{Alphabet, Valuation};
/// use cesc_trace::{
///     write_vcd_global, ClockDomain, ClockSet, GlobalRun, GlobalVcdStream, Trace,
///     VcdClockSpec, VcdWriteOptions,
/// };
///
/// let mut ab = Alphabet::new();
/// let go = ab.event("go");
/// let done = ab.event("done");
/// let mut clocks = ClockSet::new();
/// let c1 = clocks.add(ClockDomain::new("clk1", 2, 0));
/// let c2 = clocks.add(ClockDomain::new("clk2", 2, 1));
/// let run = GlobalRun::interleave(&clocks, &[
///     (c1, Trace::from_elements([Valuation::of([go])])),
///     (c2, Trace::from_elements([Valuation::of([done])])),
/// ]).unwrap();
///
/// let owners = [Valuation::of([go]), Valuation::of([done])];
/// let vcd = write_vcd_global(&run, &clocks, &ab, &owners, &VcdWriteOptions::default());
///
/// let specs = [
///     VcdClockSpec::masked("clk1", owners[0]),
///     VcdClockSpec::masked("clk2", owners[1]),
/// ];
/// let mut stream = GlobalVcdStream::new(&vcd, &ab, &specs)?;
/// let mut steps = Vec::new();
/// stream.next_chunk(&mut steps, 16)?;
/// assert_eq!(steps.len(), run.len());
/// assert_eq!(steps[0].ticks, run.get(0).unwrap().ticks);
/// assert_eq!(stream.stats().samples, 2);
/// # Ok::<(), cesc_trace::VcdReadError>(())
/// ```
#[derive(Debug)]
pub struct GlobalVcdStream<R> {
    reader: R,
    /// The start of a line that straddles two buffer fills (and, while
    /// the header is read, the current header line).
    carry: Vec<u8>,
    dec: Decoder,
    done: bool,
}

impl<'a> GlobalVcdStream<&'a [u8]> {
    /// In-memory wrapper over [`GlobalVcdStream::from_reader`].
    ///
    /// # Errors
    ///
    /// As [`GlobalVcdStream::from_reader`].
    pub fn new(
        vcd: &'a str,
        alphabet: &Alphabet,
        clocks: &[VcdClockSpec],
    ) -> Result<Self, VcdReadError> {
        Self::from_reader(vcd.as_bytes(), alphabet, clocks)
    }
}

impl<R: BufRead> GlobalVcdStream<R> {
    /// Parses the VCD header from `reader` and positions the stream at
    /// the first value change. Every clock in `clocks` must be
    /// declared.
    ///
    /// Signals present in the VCD but absent from `alphabet` are
    /// ignored; alphabet symbols absent from the VCD read as constant
    /// false. Vector declarations may carry a range (`data[7:0]`, or
    /// `data [7:0]` as a separate token) — both resolve to the base
    /// name. Multi-bit vector changes (`b... id`) are treated as true
    /// iff any bit is `1`; `x`/`z` bits read as false.
    ///
    /// # Errors
    ///
    /// Returns [`VcdReadError::MissingClock`] naming the first
    /// undeclared clock, [`VcdReadError::Malformed`] on an unparseable
    /// `$var` declaration, or [`VcdReadError::Io`] if the reader
    /// fails.
    pub fn from_reader(
        mut reader: R,
        alphabet: &Alphabet,
        clocks: &[VcdClockSpec],
    ) -> Result<Self, VcdReadError> {
        let mut carry = Vec::new();
        let mut stats = VcdStats::default();
        let mut lineno = 0;
        let codes =
            parse_header(&mut reader, &mut carry, &mut stats, &mut lineno, alphabet, clocks)?;
        carry.clear();
        Ok(GlobalVcdStream {
            reader,
            carry,
            dec: Decoder {
                codes,
                masks: clocks
                    .iter()
                    .map(|s| s.mask.map_or(u128::MAX, Valuation::bits))
                    .collect(),
                current: Valuation::empty(),
                levels: vec![false; clocks.len()],
                pending: vec![false; clocks.len()],
                any_pending: false,
                spare: Vec::new(),
                cur_time: 0,
                lineno,
                in_comment: false,
                stats,
            },
            done: false,
        })
    }

    /// What the stream has consumed and produced so far; after the
    /// last chunk, the totals of the whole dump.
    pub fn stats(&self) -> VcdStats {
        self.dec.stats
    }

    /// Clears `buf` and refills it with up to `max` global steps,
    /// returning how many were produced. `Ok(0)` signals end of input
    /// — except that `max == 0` also returns `Ok(0)` without consuming
    /// anything (like `Read::read` with an empty buffer), so never
    /// poll for end of input with a zero chunk size.
    ///
    /// # Errors
    ///
    /// Returns [`VcdReadError::Malformed`] on unparseable value
    /// changes, unparseable or decreasing timestamps, or
    /// [`VcdReadError::Io`] if the reader fails. An error poisons the
    /// stream: every subsequent call returns `Ok(0)`, so a caller that
    /// retries cannot silently resume past corrupt input.
    pub fn next_chunk(
        &mut self,
        buf: &mut Vec<GlobalStep>,
        max: usize,
    ) -> Result<usize, VcdReadError> {
        for mut step in buf.drain(..) {
            step.ticks.clear();
            self.dec.spare.push(step.ticks);
        }
        if self.done || max == 0 {
            return Ok(0);
        }
        if let Err(e) = self.fill(buf, max) {
            self.done = true;
            return Err(e);
        }
        Ok(buf.len())
    }

    /// Decodes lines into `buf` until it holds `max` steps or the input
    /// ends. Lines are decoded where they lie in the reader's buffer;
    /// only one that straddles two fills is assembled in `carry`.
    fn fill(&mut self, buf: &mut Vec<GlobalStep>, max: usize) -> Result<(), VcdReadError> {
        while buf.len() < max {
            let avail = match self.reader.fill_buf() {
                Ok(avail) => avail,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_error(&e)),
            };
            if avail.is_empty() {
                // end of input: an unterminated last line, then the
                // step sampled at the final instant
                if !self.carry.is_empty() {
                    self.dec.line(&self.carry, buf)?;
                    self.carry.clear();
                }
                self.dec.flush(buf);
                self.done = true;
                return Ok(());
            }
            let mut pos = 0;
            if !self.carry.is_empty() {
                match avail.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        self.carry.extend_from_slice(&avail[..i]);
                        pos = i + 1;
                        self.dec.line(&self.carry, buf)?;
                        self.carry.clear();
                    }
                    None => {
                        self.carry.extend_from_slice(avail);
                        pos = avail.len();
                    }
                }
            }
            while pos < avail.len() && buf.len() < max {
                let rest = &avail[pos..];
                match rest.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        pos += i + 1;
                        self.dec.line(&rest[..i], buf)?;
                    }
                    None => {
                        self.carry.extend_from_slice(rest);
                        pos = avail.len();
                    }
                }
            }
            self.reader.consume(pos);
            self.dec.stats.bytes += pos as u64;
        }
        Ok(())
    }
}

/// Parses VCD text and samples the signals named in `alphabet` at each
/// rising edge of `clock_name`, returning the reconstructed trace.
///
/// Convenience wrapper draining a one-clock [`GlobalVcdStream`] (one
/// tick per step) — use the stream directly (over a
/// `BufReader<File>`) to check long waveforms in bounded memory.
///
/// # Examples
///
/// ```
/// use cesc_expr::{Alphabet, Valuation};
/// use cesc_trace::{read_vcd, write_vcd, GlobalVcdStream, Trace, VcdClockSpec, VcdWriteOptions};
///
/// let mut ab = Alphabet::new();
/// let req = ab.event("req");
/// let t = Trace::from_elements(vec![Valuation::of([req]); 10]);
/// let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
/// assert_eq!(read_vcd(&vcd, &ab, "clk")?, t);
///
/// // the same read as a stream: a one-clock plan, one tick per step
/// let mut stream = GlobalVcdStream::new(&vcd, &ab, &[VcdClockSpec::new("clk")])?;
/// let mut chunk = Vec::new();
/// let mut total = 0;
/// while stream.next_chunk(&mut chunk, 4)? > 0 {
///     total += chunk.len(); // at most 4 ticks resident at a time
/// }
/// assert_eq!(total, 10);
/// # Ok::<(), cesc_trace::VcdReadError>(())
/// ```
///
/// # Errors
///
/// Returns [`VcdReadError::MissingClock`] if `clock_name` is not
/// declared, or [`VcdReadError::Malformed`] on unparseable content.
pub fn read_vcd(
    vcd: &str,
    alphabet: &Alphabet,
    clock_name: &str,
) -> Result<Trace, VcdReadError> {
    let mut stream = GlobalVcdStream::new(vcd, alphabet, &[VcdClockSpec::new(clock_name)])?;
    let mut trace = Trace::new();
    let mut chunk = Vec::new();
    while stream.next_chunk(&mut chunk, 4096)? > 0 {
        trace.extend(chunk.iter().map(|step| step.ticks[0].1));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockDomain;

    fn one_clock(name: &str) -> [VcdClockSpec; 1] {
        [VcdClockSpec::new(name)]
    }

    /// The valuations of a one-clock chunk: every step is one tick.
    fn one_tick_each(chunk: &[GlobalStep]) -> impl Iterator<Item = Valuation> + '_ {
        chunk.iter().map(|step| {
            assert_eq!(step.ticks.len(), 1, "one clock, one tick per step");
            step.ticks[0].1
        })
    }

    fn setup() -> (Alphabet, SymbolId, SymbolId) {
        let mut ab = Alphabet::new();
        let a = ab.event("req");
        let b = ab.prop("burst");
        (ab, a, b)
    }

    #[test]
    fn write_then_read_round_trips() {
        let (ab, a, b) = setup();
        let t = Trace::from_elements([
            Valuation::of([a]),
            Valuation::of([a, b]),
            Valuation::empty(),
            Valuation::of([b]),
        ]);
        let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
        let back = read_vcd(&vcd, &ab, "clk").unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let (ab, _, _) = setup();
        let t = Trace::new();
        let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
        let back = read_vcd(&vcd, &ab, "clk").unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn missing_clock_is_an_error() {
        let (ab, _, _) = setup();
        let t = Trace::from_elements([Valuation::empty()]);
        let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
        let err = read_vcd(&vcd, &ab, "not_a_clock").unwrap_err();
        assert!(matches!(err, VcdReadError::MissingClock { .. }));
    }

    #[test]
    fn unknown_signals_are_ignored() {
        let (ab, a, _) = setup();
        let vcd = "\
$timescale 1ns $end
$scope module top $end
$var wire 1 ! clk $end
$var wire 1 \" req $end
$var wire 1 # mystery $end
$upscope $end
$enddefinitions $end
#0
0!
0\"
1#
#5
1!
1\"
#10
0!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 1);
        assert!(t[0].contains(a));
    }

    #[test]
    fn unwatched_reals_are_ignored_by_both_readers() {
        let (ab, a, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$var real 64 # temp $end
$var realtime 64 $ stamp $end
$enddefinitions $end
#0
0!
r0 #
R1.5e3 $
#5
1!
1\"
r-2.25 #
#10
0!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 1);
        assert!(t[0].contains(a));
        let mut global = GlobalVcdStream::new(vcd, &ab, &[VcdClockSpec::new("clk")]).unwrap();
        let mut steps = Vec::new();
        assert_eq!(global.next_chunk(&mut steps, 16).unwrap(), 1);
        assert!(steps[0].ticks[0].1.contains(a));
    }

    #[test]
    fn watched_reals_are_rejected_naming_the_signal() {
        let (ab, _, _) = setup();
        for (decl, role) in [
            ("$var real 64 \" req $end", "chart symbol"),
            ("$var shortreal 32 \" clk $end", "clock"),
        ] {
            let vcd = format!("$var wire 1 ! clk $end\n{decl}\n$enddefinitions $end\n#0\n");
            for err in [
                read_vcd(&vcd, &ab, "clk").unwrap_err(),
                GlobalVcdStream::new(&vcd, &ab, &[VcdClockSpec::new("clk")]).unwrap_err(),
            ] {
                let msg = err.to_string();
                assert!(
                    matches!(err, VcdReadError::Malformed { line: 2, .. }),
                    "{msg}"
                );
                assert!(msg.contains(role), "{msg}");
            }
        }
        let vcd = "$var real 64 \" req $end\n$enddefinitions $end\n";
        let err = read_vcd(vcd, &ab, "clk").unwrap_err();
        assert!(err.to_string().contains("`req`"), "{err}");
    }

    #[test]
    fn x_and_z_values_read_as_false() {
        let (ab, a, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$enddefinitions $end
#0
1\"
1!
#5
0!
x\"
#10
1!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 2);
        assert!(t[0].contains(a));
        assert!(!t[1].contains(a));
    }

    #[test]
    fn vector_changes_map_to_any_bit_set() {
        let (ab, a, _) = setup();
        let vcd = "\
$var wire 4 ! clk $end
$var wire 4 \" req $end
$enddefinitions $end
#0
b0010 \"
1!
#5
0!
b0000 \"
#10
1!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 2);
        assert!(t[0].contains(a));
        assert!(!t[1].contains(a));
    }

    #[test]
    fn vector_x_z_bits_read_as_false() {
        // a vector of only x/z bits is false; any 1 bit wins; an x
        // *alongside* a 1 does not mask it
        let (ab, a, _) = setup();
        let vcd = "\
$var wire 4 ! clk $end
$var wire 4 \" req $end
$enddefinitions $end
#0
bxxzZ \"
1!
#5
0!
bx1z0 \"
#10
1!
#15
0!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 2);
        assert!(!t[0].contains(a), "all-x/z vector reads as false");
        assert!(t[1].contains(a), "a 1 bit among x/z still reads true");
    }

    #[test]
    fn vector_with_invalid_bits_errors() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 4 \" req $end
$enddefinitions $end
#0
bq010 \"
1!
";
        let err = read_vcd(vcd, &ab, "clk").unwrap_err();
        assert!(matches!(err, VcdReadError::Malformed { line: 5, .. }), "{err}");
    }

    #[test]
    fn var_with_separate_range_token_resolves_base_name() {
        // `$var wire 8 ! data [7:0] $end` — the name is `data`, the
        // range rides as its own token
        let mut ab = Alphabet::new();
        let data = ab.event("data");
        let vcd = "\
$var wire 1 ! clk $end
$var wire 8 \" data [7:0] $end
$enddefinitions $end
#0
b00000001 \"
1!
#5
0!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 1);
        assert!(t[0].contains(data));
    }

    #[test]
    fn var_with_attached_range_resolves_base_name() {
        let mut ab = Alphabet::new();
        let data = ab.event("data");
        let vcd = "\
$var wire 1 ! clk $end
$var wire 8 \" data[7:0] $end
$enddefinitions $end
#0
b10000000 \"
1!
#5
0!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t.len(), 1);
        assert!(t[0].contains(data));
    }

    #[test]
    fn short_var_declaration_errors() {
        let (ab, _, _) = setup();
        for vcd in [
            "$var wire 1 ! $end\n$enddefinitions $end\n",
            "$var wire 1 $end\n$enddefinitions $end\n",
        ] {
            let err = GlobalVcdStream::new(vcd, &ab, &one_clock("clk")).unwrap_err();
            assert!(matches!(err, VcdReadError::Malformed { line: 1, .. }), "{err}");
        }
    }

    #[test]
    fn malformed_timestamp_errors_instead_of_panicking() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$enddefinitions $end
#zero
1!
";
        let err = read_vcd(vcd, &ab, "clk").unwrap_err();
        match err {
            VcdReadError::Malformed { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("timestamp"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn backwards_timestamp_errors_on_single_clock_stream_too() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$enddefinitions $end
#10
1!
#3
0!
";
        let err = read_vcd(vcd, &ab, "clk").unwrap_err();
        match err {
            VcdReadError::Malformed { line, message } => {
                assert_eq!(line, 5);
                assert!(message.contains("backwards"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn streaming_chunks_equal_whole_file_read() {
        let (ab, a, b) = setup();
        // 100 ticks of varied activity
        let t: Trace = (0..100u32)
            .map(|i| {
                let mut v = Valuation::empty();
                if i % 2 == 0 {
                    v.insert(a);
                }
                if i % 3 == 0 {
                    v.insert(b);
                }
                v
            })
            .collect();
        let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
        let whole = read_vcd(&vcd, &ab, "clk").unwrap();
        assert_eq!(whole, t);
        for chunk_size in [1usize, 3, 7, 64, 1000] {
            let mut stream = GlobalVcdStream::new(&vcd, &ab, &one_clock("clk")).unwrap();
            let mut got = Trace::new();
            let mut chunk = Vec::new();
            loop {
                let n = stream.next_chunk(&mut chunk, chunk_size).unwrap();
                if n == 0 {
                    break;
                }
                assert!(chunk.len() <= chunk_size);
                got.extend(one_tick_each(&chunk));
            }
            assert_eq!(got, t, "chunk size {chunk_size}");
            // drained stream stays at EOF
            assert_eq!(stream.next_chunk(&mut chunk, chunk_size).unwrap(), 0);
        }
    }

    #[test]
    fn buffered_reader_parse_equals_whole_string_parse() {
        // same bytes through a tiny-capacity BufReader — the streamed
        // path must be byte-for-byte equivalent to the &str path
        let (ab, a, b) = setup();
        let t: Trace = (0..50u32)
            .map(|i| {
                let mut v = Valuation::empty();
                if i % 5 == 0 {
                    v.insert(a);
                }
                if i % 7 == 0 {
                    v.insert(b);
                }
                v
            })
            .collect();
        let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
        let whole = read_vcd(&vcd, &ab, "clk").unwrap();

        let reader = io::BufReader::with_capacity(7, vcd.as_bytes());
        let mut stream = GlobalVcdStream::from_reader(reader, &ab, &one_clock("clk")).unwrap();
        let mut got = Trace::new();
        let mut chunk = Vec::new();
        while stream.next_chunk(&mut chunk, 16).unwrap() > 0 {
            got.extend(one_tick_each(&chunk));
        }
        assert_eq!(got, whole);
    }

    #[test]
    fn error_poisons_stream() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$enddefinitions $end
#0
1!
#5
0!
q\"
#10
1!
";
        let mut stream = GlobalVcdStream::new(vcd, &ab, &one_clock("clk")).unwrap();
        let mut chunk = Vec::new();
        assert!(matches!(
            stream.next_chunk(&mut chunk, 100),
            Err(VcdReadError::Malformed { line: 8, .. })
        ));
        // a retry must NOT resume past the corrupt line
        assert_eq!(stream.next_chunk(&mut chunk, 100).unwrap(), 0);
    }

    #[test]
    fn stream_reports_missing_clock() {
        let (ab, _, _) = setup();
        let t = Trace::from_elements([Valuation::empty()]);
        let vcd = write_vcd(&t, &ab, &VcdWriteOptions::default());
        assert!(matches!(
            GlobalVcdStream::new(&vcd, &ab, &one_clock("ghost")),
            Err(VcdReadError::MissingClock { .. })
        ));
    }

    #[test]
    fn multi_line_body_comment_is_skipped() {
        // `$comment` text spans lines up to `$end`; a comment line that
        // looks like a value change must not apply, while `$dumpvars`
        // / `$dumpall` blocks still do
        let (ab, a, b) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$var wire 1 # burst $end
$enddefinitions $end
#0
$dumpvars
0!
1\"
0#
$end
#5
$comment
checkpoint reached
1#
$end
1!
#10
0!
$dumpall
0\"
1#
0!
$end
$comment one line $end
#15
1!
#20
0!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(
            t,
            Trace::from_elements([Valuation::of([a]), Valuation::of([b])]),
            "comment lines applied, or a dump block ignored"
        );
    }

    #[test]
    fn scalar_change_missing_identifier_errors() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$enddefinitions $end
#0
1\"
1
#5
1!
";
        match read_vcd(vcd, &ab, "clk").unwrap_err() {
            VcdReadError::Malformed { line, message } => {
                assert_eq!(line, 6);
                assert!(message.contains("missing identifier"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn id_codes_are_printable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let c = id_code(i);
            assert!(c.chars().all(|ch| ('!'..='~').contains(&ch)));
            assert!(seen.insert(c));
        }
    }

    #[test]
    fn malformed_input_reports_line() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$enddefinitions $end
#0
q!
";
        let err = read_vcd(vcd, &ab, "clk").unwrap_err();
        match err {
            VcdReadError::Malformed { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    // ---- multi-clock global stream ---------------------------------

    fn global_setup() -> (Alphabet, SymbolId, SymbolId, ClockSet, GlobalRun) {
        let mut ab = Alphabet::new();
        let go = ab.event("go");
        let done = ab.event("done");
        let mut clocks = ClockSet::new();
        let c1 = clocks.add(ClockDomain::new("clk1", 2, 0)); // 0,2,4
        let c2 = clocks.add(ClockDomain::new("clk2", 3, 1)); // 1,4
        let t1 = Trace::from_elements([
            Valuation::of([go]),
            Valuation::empty(),
            Valuation::of([go]),
        ]);
        let t2 = Trace::from_elements([Valuation::of([done]), Valuation::of([done])]);
        let run = GlobalRun::interleave(&clocks, &[(c1, t1), (c2, t2)]).unwrap();
        (ab, go, done, clocks, run)
    }

    #[test]
    fn global_write_read_round_trips() {
        let (ab, go, done, clocks, run) = global_setup();
        let owners = [Valuation::of([go]), Valuation::of([done])];
        let opts = VcdWriteOptions {
            half_period: 1,
            ..Default::default()
        };
        let vcd = write_vcd_global(&run, &clocks, &ab, &owners, &opts);
        let specs = [
            VcdClockSpec::masked("clk1", owners[0]),
            VcdClockSpec::masked("clk2", owners[1]),
        ];
        let mut stream = GlobalVcdStream::new(&vcd, &ab, &specs).unwrap();
        let mut steps = Vec::new();
        let mut got: Vec<GlobalStep> = Vec::new();
        while stream.next_chunk(&mut steps, 3).unwrap() > 0 {
            got.extend(steps.iter().cloned());
        }
        assert_eq!(got.len(), run.len());
        for (read, orig) in got.iter().zip(run.iter()) {
            // VCD time = 2 * global time * half_period (half_period=1)
            assert_eq!(read.time, 2 * orig.time);
            assert_eq!(read.ticks, orig.ticks);
        }
    }

    #[test]
    fn global_shared_instants_merge_into_one_step() {
        let (ab, go, done, clocks, run) = global_setup();
        // global time 4 has both clocks ticking
        let shared = run.iter().find(|s| s.ticks.len() == 2).expect("shared instant");
        assert_eq!(shared.time, 4);
        let owners = [Valuation::of([go]), Valuation::of([done])];
        let vcd = write_vcd_global(
            &run,
            &clocks,
            &ab,
            &owners,
            &VcdWriteOptions {
                half_period: 1,
                ..Default::default()
            },
        );
        let specs = [VcdClockSpec::new("clk1"), VcdClockSpec::new("clk2")];
        let mut stream = GlobalVcdStream::new(&vcd, &ab, &specs).unwrap();
        let mut steps = Vec::new();
        stream.next_chunk(&mut steps, 64).unwrap();
        let read_shared = steps.iter().find(|s| s.time == 8).expect("shared step");
        assert_eq!(read_shared.ticks.len(), 2);
    }

    #[test]
    fn global_missing_clock_names_the_culprit() {
        let (ab, _, _, clocks, run) = global_setup();
        let owners = [Valuation::empty(), Valuation::empty()];
        let vcd = write_vcd_global(&run, &clocks, &ab, &owners, &VcdWriteOptions::default());
        let specs = [VcdClockSpec::new("clk1"), VcdClockSpec::new("ghost")];
        match GlobalVcdStream::new(&vcd, &ab, &specs) {
            Err(VcdReadError::MissingClock { name }) => assert_eq!(name, "ghost"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn global_backwards_timestamp_errors() {
        let (ab, _, _) = setup();
        let vcd = "\
$var wire 1 ! clk1 $end
$enddefinitions $end
#5
1!
#3
0!
";
        let mut stream = GlobalVcdStream::new(vcd, &ab, &[VcdClockSpec::new("clk1")]).unwrap();
        let mut steps = Vec::new();
        let err = stream.next_chunk(&mut steps, 16).unwrap_err();
        assert!(matches!(err, VcdReadError::Malformed { line: 5, .. }), "{err}");
        // poisoned
        assert_eq!(stream.next_chunk(&mut steps, 16).unwrap(), 0);
    }

    #[test]
    fn global_stream_masks_restrict_tick_valuations() {
        let (ab, go, done, clocks, run) = global_setup();
        // write WITHOUT ownership separation (both clocks own all
        // symbols), then read back masked: each tick carries only its
        // own chart's signals even though the wires are shared
        let all = Valuation::of([go, done]);
        let vcd = write_vcd_global(
            &run,
            &clocks,
            &ab,
            &[all, all],
            &VcdWriteOptions {
                half_period: 1,
                ..Default::default()
            },
        );
        let specs = [
            VcdClockSpec::masked("clk1", Valuation::of([go])),
            VcdClockSpec::masked("clk2", Valuation::of([done])),
        ];
        let mut stream = GlobalVcdStream::new(&vcd, &ab, &specs).unwrap();
        let mut steps = Vec::new();
        stream.next_chunk(&mut steps, 64).unwrap();
        for step in &steps {
            for &(clock, v) in &step.ticks {
                if clock.index() == 0 {
                    assert!(!v.contains(done), "clk1 tick must not carry done");
                } else {
                    assert!(!v.contains(go), "clk2 tick must not carry go");
                }
            }
        }
    }

    // ---- byte-level reader edge cases ------------------------------

    /// Every step of a stream read in chunks of `max`, or its error.
    fn drain<R: BufRead>(
        mut stream: GlobalVcdStream<R>,
        max: usize,
    ) -> (Result<Vec<GlobalStep>, VcdReadError>, VcdStats) {
        let mut all = Vec::new();
        let mut chunk = Vec::new();
        loop {
            match stream.next_chunk(&mut chunk, max) {
                Ok(0) => return (Ok(all), stream.stats()),
                Ok(_) => all.extend(chunk.iter().cloned()),
                Err(e) => return (Err(e), stream.stats()),
            }
        }
    }

    const HANDSHAKE: &str = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$var wire 4 # burst $end
$enddefinitions $end
#0
1\"
b1x10 #
1!
#5
0!
0\"
bxz00 #
#10
1!
";

    #[test]
    fn crlf_line_endings_read_like_lf() {
        let (ab, _, _) = setup();
        let lf = read_vcd(HANDSHAKE, &ab, "clk").unwrap();
        assert_eq!(lf.len(), 2);
        let crlf = HANDSHAKE.replace('\n', "\r\n");
        assert_eq!(read_vcd(&crlf, &ab, "clk").unwrap(), lf);
        // also when the `\r` and the `\n` land in different buffer fills
        for cap in 1..=4 {
            let reader = io::BufReader::with_capacity(cap, crlf.as_bytes());
            let stream = GlobalVcdStream::from_reader(reader, &ab, &one_clock("clk")).unwrap();
            let (steps, stats) = drain(stream, 16);
            let got: Trace = one_tick_each(&steps.unwrap()).collect();
            assert_eq!(got, lf, "capacity {cap}");
            assert_eq!(stats.bytes, crlf.len() as u64);
        }
    }

    #[test]
    fn tab_separated_vector_change_applies() {
        let (ab, a, b) = setup();
        let vcd = HANDSHAKE
            .replace("b1x10 #", "b1010\t#")
            .replace("bxz00 #", "\tb0000\t\t#\t");
        let t = read_vcd(&vcd, &ab, "clk").unwrap();
        assert_eq!(t, Trace::from_elements([Valuation::of([a, b]), Valuation::empty()]));
    }

    #[test]
    fn unwatched_long_code_sharing_a_watched_prefix_is_skipped() {
        // `"` is `req`; `"#$` is an unwatched 3-byte code starting with it
        let (ab, a, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$var wire 1 \"#$ other $end
$enddefinitions $end
#0
1\"#$
1!
#5
0!
0\"#$
1\"
#10
1!
";
        let stream = GlobalVcdStream::new(vcd, &ab, &one_clock("clk")).unwrap();
        let (steps, stats) = drain(stream, 16);
        let got: Trace = one_tick_each(&steps.unwrap()).collect();
        assert_eq!(got, Trace::from_elements([Valuation::empty(), Valuation::of([a])]));
        assert_eq!(stats.value_changes, 6);
        assert_eq!(stats.skipped_changes, 2);
        assert_eq!(stats.samples, 2);
        assert_eq!(stats.bytes, vcd.len() as u64);
    }

    #[test]
    fn watched_three_byte_code_applies() {
        let (ab, a, b) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 1 ab~ req $end
$var wire 8 ~~~~ burst [7:0] $end
$enddefinitions $end
#0
1ab~
b00000001 ~~~~
1!
#5
0!
0ab~
#10
1!
";
        let t = read_vcd(vcd, &ab, "clk").unwrap();
        assert_eq!(t, Trace::from_elements([Valuation::of([a, b]), Valuation::of([b])]));
    }

    #[test]
    fn non_ascii_body_byte_errors_naming_its_line() {
        let (ab, _, _) = setup();
        let head = "$var wire 1 ! clk $end\n$var wire 1 \" req $end\n$enddefinitions $end\n#0\n1!\n";
        for bad in [
            &b"1\xff\n"[..],      // scalar change to a non-ASCII code
            b"1\xc3\xa9\n",      // ... valid UTF-8 included
            b"\xe2\x80\x8b1\"\n", // non-ASCII first byte
            b"#1\xff\n",         // timestamp
            b"b10 \xff\n",       // vector code
        ] {
            let mut vcd = head.as_bytes().to_vec();
            vcd.extend_from_slice(bad);
            vcd.extend_from_slice(b"#5\n0!\n");
            let stream = GlobalVcdStream::from_reader(&vcd[..], &ab, &one_clock("clk")).unwrap();
            let (res, _) = drain(stream, 16);
            match res {
                Err(VcdReadError::Malformed { line: 6, .. }) => {}
                other => panic!("{bad:?}: {other:?}"),
            }
        }
        // a non-ASCII byte in text the reader does not interpret
        // (comment, unwatched vector value, real value) is not an error
        let mut vcd = head.as_bytes().to_vec();
        vcd.extend_from_slice(b"$comment caf\xc3\xa9 $end\nb1\xff0 ?\nr1.\xff5 ?\n#5\n0!\n");
        assert!(read_vcd(&String::from_utf8_lossy(&vcd), &ab, "clk").is_ok());
        let stream = GlobalVcdStream::from_reader(&vcd[..], &ab, &one_clock("clk")).unwrap();
        assert_eq!(drain(stream, 16).0.unwrap().len(), 1);
    }

    #[test]
    fn unwatched_vector_with_invalid_bits_is_skipped() {
        let (ab, a, _) = setup();
        let vcd = "\
$var wire 1 ! clk $end
$var wire 1 \" req $end
$var wire 4 # mystery $end
$enddefinitions $end
#0
bq0?0 #
1\"
1!
";
        let stream = GlobalVcdStream::new(vcd, &ab, &one_clock("clk")).unwrap();
        let (steps, stats) = drain(stream, 16);
        let got: Trace = one_tick_each(&steps.unwrap()).collect();
        assert_eq!(got, Trace::from_elements([Valuation::of([a])]));
        assert_eq!(stats.skipped_changes, 1);
        // the same change to a watched code still errors
        let watched = vcd.replace("bq0?0 #", "bq0?0 \"");
        assert!(matches!(
            read_vcd(&watched, &ab, "clk"),
            Err(VcdReadError::Malformed { line: 6, .. })
        ));
    }

    #[test]
    fn clocks_sharing_one_signal_tick_together() {
        // `ck` and `clk` alias one code; the spec asks for `clk` twice
        // and for `ck`: all three tick on its edge, in request order
        let (ab, a, _) = setup();
        let vcd = "$var wire 1 ! clk $end\n$var wire 1 ! ck $end\n$var wire 1 \" req $end\n\
                   $enddefinitions $end\n#0\n1\"\n1!\n#5\n0!\n";
        let specs = [
            VcdClockSpec::new("clk"),
            VcdClockSpec::masked("ck", Valuation::empty()),
            VcdClockSpec::new("clk"),
        ];
        let (steps, stats) = drain(GlobalVcdStream::new(vcd, &ab, &specs).unwrap(), 16);
        let want = [
            (ClockId::from_index(0), Valuation::of([a])),
            (ClockId::from_index(1), Valuation::empty()),
            (ClockId::from_index(2), Valuation::of([a])),
        ];
        assert_eq!(steps.unwrap()[0].ticks, want);
        assert_eq!(stats.samples, 3);
    }

    #[test]
    fn timestamps_parse_every_width_up_to_u64_max() {
        for t in [0, 7, 12_345_678, 123_456_789, 9_999_999_999_999_999, u64::MAX] {
            assert_eq!(parse_timestamp(t.to_string().as_bytes(), 1), Ok(t), "{t}");
        }
        assert_eq!(parse_timestamp(b"+42", 1), Ok(42));
        assert_eq!(parse_timestamp(b"00000000000000000000001", 1), Ok(1));
        for bad in [
            &b""[..],
            b"+",
            b"-1",
            b"1_000",
            b"12345678x",
            b"1234567890123x",
            b"18446744073709551616",
            b"99999999999999999999",
        ] {
            assert!(
                matches!(parse_timestamp(bad, 9), Err(VcdReadError::Malformed { line: 9, .. })),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn every_small_buffer_capacity_equals_the_whole_slice_read() {
        // two clocks (one shared code pair), a multi-line body comment
        // holding change-like lines, vectors, reals, x/z, CRLF and a
        // last line without a terminator: each line straddles buffer
        // fills somewhere across these capacities
        let mut ab = Alphabet::new();
        let go = ab.event("go");
        let done = ab.event("done");
        let data = ab.event("data");
        let vcd = "\
$timescale 1ns $end
$var wire 1 ! clk1 $end
$var wire 1 \" clk2 $end
$var wire 1 # go $end
$var wire 1 $ done $end
$var wire 8 %& data [7:0] $end
$var real 64 ' temp $end
$enddefinitions $end
#0
$dumpvars
0!
0\"
x#
z$
bzzzzzzzz %&
r0.0 '
$end
#2
1#\r
1!
b0000x001 %&
#3
$comment
  1$
  #99 looks like a timestamp
$end
1\"
r-1.5e3 '
#4
0!
0#
1$
bxxxxxxxx %&
#5
0\"
1!
1\"
#6
0!";
        let specs = [
            VcdClockSpec::masked("clk1", Valuation::of([go, data])),
            VcdClockSpec::new("clk2"),
        ];
        let whole = drain(GlobalVcdStream::new(vcd, &ab, &specs).unwrap(), 1000);
        let steps = whole.0.clone().unwrap();
        let times: Vec<u64> = steps.iter().map(|s| s.time).collect();
        assert_eq!(times, [2, 3, 5]);
        assert_eq!(steps[0].ticks, [(ClockId::from_index(0), Valuation::of([go, data]))]);
        assert_eq!(steps[1].ticks, [(ClockId::from_index(1), Valuation::of([go, data]))]);
        assert_eq!(
            steps[2].ticks,
            [
                (ClockId::from_index(0), Valuation::empty()),
                (ClockId::from_index(1), Valuation::of([done])),
            ]
        );
        assert_eq!(whole.1.bytes, vcd.len() as u64);
        assert_eq!(whole.1.samples, 4);
        assert_eq!(whole.1.skipped_changes, 2, "the two real changes");
        for cap in 1..=9 {
            for max in [1, 2, 1000] {
                let reader = io::BufReader::with_capacity(cap, vcd.as_bytes());
                let got = drain(GlobalVcdStream::from_reader(reader, &ab, &specs).unwrap(), max);
                assert_eq!(got, whole, "capacity {cap}, chunk {max}");
            }
        }
    }
}
