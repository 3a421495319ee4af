//! The escaped JSON writer behind `cesc check --json`.
//!
//! `cesc` emits its machine-readable report by hand (no serde in the
//! offline workspace), so every string that reaches the output — chart
//! names in particular — must pass through exactly one escaping
//! routine, [`cesc_obs::json::string`]. This module re-exports it
//! next to the small composition helpers the report layout needs;
//! `cli::render_json` assembles the document from these pieces and
//! nothing else writes JSON.

use cesc_par::MatchLog;

/// Renders `s` as a JSON string literal: quotes, backslashes and every
/// control character (`U+0000`–`U+001F`) escaped — the escaper the
/// `cesc-obs/1` stats report uses too.
pub(crate) use cesc_obs::json::string;

/// Renders a `u64` array.
pub(crate) fn times(ts: &[u64]) -> String {
    let inner: Vec<String> = ts.iter().map(u64::to_string).collect();
    format!("[{}]", inner.join(","))
}

/// Renders a string array (each element escaped).
pub(crate) fn strings(items: &[&str]) -> String {
    let inner: Vec<String> = items.iter().map(|c| string(c)).collect();
    format!("[{}]", inner.join(","))
}

/// Renders a `(before, after)` pair as a two-element array.
pub(crate) fn pair(p: (usize, usize)) -> String {
    format!("[{},{}]", p.0, p.1)
}

/// Renders the match-accounting fields of one target: `matches`,
/// `first`, `last`, plus `all` when the log kept every hit.
pub(crate) fn log(log: &MatchLog) -> String {
    let mut fields = format!(
        "\"matches\":{},\"first\":{},\"last\":{}",
        log.count(),
        times(log.first()),
        times(&log.last())
    );
    if let Some(all) = log.all() {
        fields.push_str(&format!(",\"all\":{}", times(all)));
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_and_backslashes() {
        assert_eq!(string(r#"a"b"#), r#""a\"b""#);
        assert_eq!(string(r"a\b"), r#""a\\b""#);
        assert_eq!(string(r#"\""#), r#""\\\"""#);
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(string("a\nb"), r#""a\nb""#);
        assert_eq!(string("a\rb"), r#""a\rb""#);
        assert_eq!(string("a\tb"), r#""a\tb""#);
        assert_eq!(string("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(string("\u{1f}"), "\"\\u001f\"");
        // 0x20 and above pass through
        assert_eq!(string(" ~"), "\" ~\"");
    }

    #[test]
    fn hostile_chart_name_stays_well_formed() {
        // a chart name with every hazardous class at once
        let name = "ocp\"read\\v1\n\u{2}";
        let rendered = string(name);
        assert_eq!(rendered, "\"ocp\\\"read\\\\v1\\n\\u0002\"");
        // no raw control bytes or unescaped quotes survive inside
        let inner = &rendered[1..rendered.len() - 1];
        assert!(inner.chars().all(|c| (c as u32) >= 0x20));
    }

    #[test]
    fn arrays_render_flat() {
        assert_eq!(times(&[1, 2, 30]), "[1,2,30]");
        assert_eq!(times(&[]), "[]");
        assert_eq!(strings(&["clk", "a\"b"]), "[\"clk\",\"a\\\"b\"]");
        assert_eq!(pair((14, 9)), "[14,9]");
    }

    #[test]
    fn unicode_passes_through_unescaped() {
        assert_eq!(string("çλ→k"), "\"çλ→k\"");
    }
}
