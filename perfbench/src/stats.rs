//! Spread statistics and the hand-written JSON the benchmark prints.
//!
//! Every metric is a list of per-round samples. Its headline value is the
//! median; its spread is the first and third quartile computed as
//! Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
//! method), so the figures printed here match a script re-computing them
//! from the raw values.

use std::fmt::Write as _;

/// Median of a sample (mean of the two middle values for an even count);
/// 0.0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, `statistics.quantiles(values, n=4)`.
/// A single value is its own quartiles; an empty sample gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of a sample, the repository's own definition
/// (`mmoc_core::sample_quantile`), so per-round percentiles match the
/// engine's reports.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    mmoc_core::sample_quantile(&mut v, q)
}

/// Arithmetic mean; 0.0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One named metric with its per-round samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: the direction that is better.
    pub better: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(
        name: &'static str,
        unit: &'static str,
        better: &'static str,
        samples: Vec<f64>,
    ) -> Self {
        Metric {
            name,
            unit,
            better,
            samples,
        }
    }

    pub fn value(&self) -> f64 {
        finite(median(&self.samples))
    }

    /// `name  median unit  [q1, q3]  n=…  (better)` and the raw samples,
    /// for the human-readable table.
    pub fn lines(&self) -> String {
        let (q1, q3) = quartiles(&self.samples);
        let raw: Vec<String> = self.samples.iter().map(|v| format!("{v:.4}")).collect();
        format!(
            "  {:<30} {:>14.6} {:<6} [q1 {:.6}, q3 {:.6}] n={} ({} is better)\n      raw: {}",
            self.name,
            self.value(),
            self.unit,
            finite(q1),
            finite(q3),
            self.samples.len(),
            self.better,
            raw.join(" ")
        )
    }

    /// Full JSON record: median, quartiles, count and raw samples.
    pub fn detail_json(&self) -> String {
        let (q1, q3) = quartiles(&self.samples);
        let raw: Vec<String> = self.samples.iter().map(|&v| num(v)).collect();
        format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"raw\":[{}]}}",
            self.name,
            self.unit,
            num(self.value()),
            num(q1),
            num(q3),
            self.samples.len(),
            raw.join(",")
        )
    }
}

/// JSON has no NaN or infinity; report them as 0.
pub fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// A number with every digit Rust's shortest round-trip form gives.
pub fn num(v: f64) -> String {
    let v = finite(v);
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value()),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = [Metric::new("a_ms", "ms", "lower", vec![1.0, 2.0, 4.0])];
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
        assert_eq!(num(f64::NAN), "0.0");
        assert_eq!(num(0.125), "0.125");
    }
}
