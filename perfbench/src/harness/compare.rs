//! `qld_bench compare`: two result files side by side, judged against
//! the bounds in `BENCHMARK.json`.

use super::json::Json;
use super::stats::{band, median};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Direction and bound of one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end bounds declared in `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Json) -> Result<BTreeMap<String, Bound>, String> {
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .ok_or(format!("end_to_end entry without `{key}`"))
            };
            let name = field("name")?.as_str().ok_or("`name` is not a string")?;
            let better = field("better")?
                .as_str()
                .ok_or("`better` is not a string")?;
            let bound = field("bound")?.as_f64().ok_or("`bound` is not a number")?;
            Ok((
                name.to_string(),
                Bound {
                    lower_is_better: better == "lower",
                    bound,
                },
            ))
        })
        .collect()
}

/// One side of a comparison: per `workload/metric`, the value of every
/// run in the file and the widest per-run noise band.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Side {
    series: BTreeMap<String, (Vec<f64>, f64)>,
}

impl Side {
    /// Reads a result file: one `RunReport::result_file_line` per line.
    pub fn parse(text: &str) -> Result<Side, String> {
        let mut side = Side::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let run = Json::parse(line)?;
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("result line without `workload`")?;
            let metrics = run
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("result line without `metrics`")?;
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("metric `{name}` without a value"))?;
                let run_band = run
                    .get("bands")
                    .and_then(|b| b.get(name))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                let entry = side
                    .series
                    .entry(format!("{workload}/{name}"))
                    .or_insert((Vec::new(), 0.0));
                entry.0.push(value);
                entry.1 = entry.1.max(run_band);
            }
        }
        Ok(side)
    }

    /// Median over runs and the noise band: the spread over runs when
    /// there are several, else the run's own spread over passes.
    fn summary(&self, key: &str) -> Option<(f64, f64)> {
        let (values, run_band) = self.series.get(key)?;
        let spread = if values.len() > 1 {
            band(values)
        } else {
            *run_band
        };
        Some((median(values), spread))
    }
}

/// The verdict on one `workload/metric`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the base by more than the bound.
    Regression,
    /// Not a regression, but a side's noise band exceeds the bound, so
    /// "unchanged" cannot be claimed.
    Unresolved,
    /// Within the bound, and both bands are inside it.
    WithinBound,
    /// No bound declared (per-layer metrics).
    Unbounded,
}

/// Compares `b` against the base `a`; returns the printed table and
/// whether any bounded metric regressed.
pub fn compare(a: &Side, b: &Side, bounds: &BTreeMap<String, Bound>) -> (String, bool) {
    let mut table = String::new();
    let mut regressed = false;
    let _ = writeln!(
        table,
        "{:<36} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload/metric", "a (base)", "b", "b/a", "band a", "band b"
    );
    for key in a.series.keys() {
        let (Some((base, band_a)), Some((new, band_b))) = (a.summary(key), b.summary(key)) else {
            continue;
        };
        let metric = key.rsplit('/').next().expect("keys are workload/metric");
        let verdict = match bounds.get(metric) {
            None => Verdict::Unbounded,
            Some(bound) => {
                let worse_by = if bound.lower_is_better {
                    (new - base) / base
                } else {
                    (base - new) / base
                };
                if worse_by > bound.bound {
                    Verdict::Regression
                } else if band_a > bound.bound || band_b > bound.bound {
                    Verdict::Unresolved
                } else {
                    Verdict::WithinBound
                }
            }
        };
        regressed |= verdict == Verdict::Regression;
        let _ = writeln!(
            table,
            "{key:<36} {base:>14.4} {new:>14.4} {:>8.3}x {:>7.1}% {:>7.1}%  {}",
            new / base,
            100.0 * band_a,
            100.0 * band_b,
            match verdict {
                Verdict::Regression => "REGRESSION (worse than the bound allows)",
                Verdict::Unresolved => "unresolved (noise band exceeds the bound)",
                Verdict::WithinBound => "within bound",
                Verdict::Unbounded => "-",
            }
        );
    }
    (table, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, ops: f64, p50: f64, band: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"metrics\": \
             {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}, \
             \"op_p50_us\": {{\"value\": {p50}, \"unit\": \"us\"}}}}, \
             \"bands\": {{\"ops_per_s\": {band}, \"op_p50_us\": {band}}}}}\n"
        )
    }

    fn bounds() -> BTreeMap<String, Bound> {
        let benchmark = Json::parse(
            r#"{"end_to_end": [
                {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        bounds_of(&benchmark).unwrap()
    }

    #[test]
    fn a_slower_side_regresses_in_the_metrics_direction() {
        let a = Side::parse(&line("w", 100.0, 10.0, 0.02)).unwrap();
        let slower = Side::parse(&line("w", 85.0, 12.0, 0.02)).unwrap();
        let (table, regressed) = compare(&a, &slower, &bounds());
        assert!(regressed);
        assert_eq!(table.matches("REGRESSION").count(), 2);
        // The same numbers the other way round are an improvement.
        let (table, regressed) = compare(&slower, &a, &bounds());
        assert!(!regressed, "{table}");
    }

    #[test]
    fn a_wide_band_is_unresolved_not_unchanged() {
        let a = Side::parse(&line("w", 100.0, 10.0, 0.02)).unwrap();
        let noisy = Side::parse(&line("w", 97.0, 10.2, 0.3)).unwrap();
        let (table, regressed) = compare(&a, &noisy, &bounds());
        assert!(!regressed);
        assert_eq!(table.matches("unresolved").count(), 2, "{table}");
        let quiet = Side::parse(&line("w", 97.0, 10.2, 0.03)).unwrap();
        let (table, _) = compare(&a, &quiet, &bounds());
        assert_eq!(table.matches("within bound").count(), 2, "{table}");
    }

    #[test]
    fn several_runs_reduce_to_a_median_and_their_own_spread() {
        let runs = [90.0, 100.0, 110.0]
            .map(|ops| line("w", ops, 10.0, 0.0))
            .concat();
        let side = Side::parse(&runs).unwrap();
        let (value, spread) = side.summary("w/ops_per_s").unwrap();
        assert_eq!(value, 100.0);
        assert!((spread - 0.2).abs() < 1e-12);
    }
}
