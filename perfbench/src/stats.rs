//! Reported figures, and the medians and quartiles of a run's per-pass
//! samples.

/// One reported metric and the per-pass samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    /// Reports `value`, a figure derived from the samples.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: Vec<f64>) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }

    /// Reports the median of the samples.
    pub fn median(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric::new(name, unit, median(&samples), samples)
    }

    /// `min`, quartiles, median, `max`, sample count and, for up to
    /// [`LISTED_SAMPLES`] samples, the samples themselves, as a JSON
    /// object.
    pub fn spread_json(&self) -> String {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        let [q1, q2, q3] = quartiles(&s);
        let listed = if self.samples.len() <= LISTED_SAMPLES {
            let all: Vec<String> = self.samples.iter().map(|&v| num(v)).collect();
            format!(",\"samples\":[{}]", all.join(","))
        } else {
            String::new()
        };
        format!(
            "{{\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{},\"n\":{}{listed}}}",
            num(s[0]),
            num(q1),
            num(q2),
            num(q3),
            num(s[s.len() - 1]),
            s.len()
        )
    }
}

/// Runs with more samples than this list only their summary.
const LISTED_SAMPLES: usize = 100;

pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quartiles(&s)[1]
}

/// Quartiles of sorted data by the exclusive method — what Python's
/// `statistics.quantiles(data, n=4)` returns.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    match n {
        0 => [f64::NAN; 3],
        1 => [sorted[0]; 3],
        _ => {
            let m = n + 1;
            [1, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m - j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            })
        }
    }
}

/// A finite number as JSON, with every digit Rust's shortest
/// round-trip form gives it.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), [2.75, 5.5, 8.25]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
