//! `grb-bench compare` and `grb-bench noise`: judge one `result.json`
//! against another by the directions and bounds `BENCHMARK.json` fixes, and
//! summarise the run-to-run spread of several results of the same code.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::stats::{quartiles, spread};
use crate::{read_json, write_file, Args};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Within the bound, but the metric's own run-to-run spread is wider
    /// than the bound, so "unchanged" cannot be told from "changed".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `bound` and `spread` are shares of the base value.
pub fn verdict(
    base: f64,
    new: f64,
    higher_is_better: bool,
    bound: f64,
    spread: Option<f64>,
) -> Verdict {
    let worse_by = if higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > bound {
        Verdict::Improved
    } else if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// `(name, higher_is_better, bound)` of each end-to-end metric in the spec.
fn spec_metrics(spec: &Json) -> Result<Vec<(String, bool, f64)>, String> {
    spec.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b @ ("higher" | "lower")), Some(bound)) => {
                    Ok((n.to_string(), b == "higher", bound))
                }
                _ => Err(format!("malformed end_to_end entry {}", m.compact())),
            }
        })
        .collect()
}

fn metric_value(result: &Json, workload: &str, kind: &str, metric: &str) -> Option<f64> {
    result
        .get("workloads")?
        .get(workload)?
        .get(kind)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn workload_names(result: &Json) -> Vec<String> {
    result
        .get("workloads")
        .map(Json::fields)
        .unwrap_or_default()
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

pub fn main(paths: &[String], args: &Args) -> Result<bool, String> {
    let [base_path, new_path] = paths else {
        return Err("compare takes two result.json paths".into());
    };
    let base = read_json(Path::new(base_path))?;
    let new = read_json(Path::new(new_path))?;
    let spec_path = args
        .path("spec")
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    let metrics = spec_metrics(&read_json(&spec_path)?)?;
    let noise = match args.path("noise") {
        Some(p) => Some(read_json(&p)?),
        None => None,
    };
    let spread_of = |workload: &str, metric: &str| {
        noise
            .as_ref()?
            .get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("spread")?
            .as_f64()
    };

    let mut ok = true;
    println!("# base {base_path}\n# new  {new_path}");
    println!("metric workload base new new/base bound spread verdict");
    for workload in workload_names(&base) {
        for (metric, higher, bound) in &metrics {
            let pair = (
                metric_value(&base, &workload, "end_to_end", metric),
                metric_value(&new, &workload, "end_to_end", metric),
            );
            let (Some(b), Some(n)) = pair else {
                println!("{metric} {workload} - - - {bound} - missing");
                ok = false;
                continue;
            };
            let spread = spread_of(&workload, metric);
            let v = verdict(b, n, *higher, *bound, spread);
            ok &= v != Verdict::Regressed;
            println!(
                "{metric} {workload} {b} {n} {:.4} {bound} {} {}",
                n / b,
                spread.map_or("-".to_string(), |s| format!("{s:.4}")),
                v.as_str()
            );
        }
        let ratio = |r: &Json| {
            r.get("workloads")?
                .get(&workload)?
                .get("fail_ratio")?
                .as_f64()
        };
        let (b, n) = (ratio(&base).unwrap_or(0.0), ratio(&new).unwrap_or(1.0));
        let rose = n > b;
        ok &= !rose;
        println!(
            "fail_ratio {workload} {b} {n} - 0 - {}",
            if rose { "regressed" } else { "unchanged" }
        );
        if args.has("layers") {
            let layers = base
                .get("workloads")
                .and_then(|w| w.get(&workload))
                .and_then(|w| w.get("per_layer"))
                .map(Json::fields)
                .unwrap_or_default();
            for (metric, _) in layers {
                let b = metric_value(&base, &workload, "per_layer", metric);
                let n = metric_value(&new, &workload, "per_layer", metric);
                if let (Some(b), Some(n)) = (b, n) {
                    println!("{metric} {workload} {b} {n} {:.4} - - info", n / b);
                }
            }
        }
    }
    Ok(ok)
}

/// Median, quartiles and spread of every metric over several results of the
/// same code, per workload.
pub fn noise(paths: &[String], args: &Args) -> Result<bool, String> {
    if paths.len() < 2 {
        return Err("noise takes at least two result.json paths".into());
    }
    let out_path = args.path("out").ok_or("noise needs --out <noise.json>")?;
    let results: Vec<Json> = paths
        .iter()
        .map(|p| read_json(Path::new(p)))
        .collect::<Result<_, _>>()?;
    let mut by_workload = Vec::new();
    for workload in workload_names(&results[0]) {
        let mut entry = Json::obj();
        for kind in ["end_to_end", "per_layer"] {
            let names: Vec<String> = results[0]
                .get("workloads")
                .and_then(|w| w.get(&workload))
                .and_then(|w| w.get(kind))
                .map(Json::fields)
                .unwrap_or_default()
                .iter()
                .map(|(name, _)| name.clone())
                .collect();
            let mut metrics = Vec::new();
            for metric in names {
                let values: Vec<f64> = results
                    .iter()
                    .filter_map(|r| metric_value(r, &workload, kind, &metric))
                    .collect();
                let (q1, median, q3) = quartiles(&values);
                let spread = spread(&values);
                if kind == "end_to_end" {
                    println!("{metric} {workload} median {median} spread {spread:.4}");
                }
                metrics.push((
                    metric,
                    Json::obj()
                        .with("median", median)
                        .with("q1", q1)
                        .with("q3", q3)
                        .with("spread", spread)
                        .with(
                            "values",
                            values.into_iter().map(Json::from).collect::<Vec<_>>(),
                        ),
                ));
            }
            entry = entry.with(kind, Json::Obj(metrics));
        }
        by_workload.push((workload, entry));
    }
    let doc = Json::obj()
        .with("runs", paths.len())
        .with(
            "inputs",
            paths
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect::<Vec<_>>(),
        )
        .with("workloads", Json::Obj(by_workload));
    write_file(&out_path, &doc.pretty())?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Verdict::*;
        // lower is better, bound 10 %
        assert_eq!(verdict(100.0, 105.0, false, 0.10, None), Unchanged);
        assert_eq!(verdict(100.0, 111.0, false, 0.10, None), Regressed);
        assert_eq!(verdict(100.0, 89.0, false, 0.10, None), Improved);
        // higher is better: the same numbers flip
        assert_eq!(verdict(100.0, 111.0, true, 0.10, None), Improved);
        assert_eq!(verdict(100.0, 89.0, true, 0.10, None), Regressed);
        assert_eq!(verdict(100.0, 95.0, true, 0.10, None), Unchanged);
    }

    #[test]
    fn wide_spread_turns_unchanged_into_unresolved_only() {
        use Verdict::*;
        assert_eq!(verdict(100.0, 105.0, false, 0.10, Some(0.05)), Unchanged);
        assert_eq!(verdict(100.0, 105.0, false, 0.10, Some(0.15)), Unresolved);
        // a move past the bound is still called, whatever the spread
        assert_eq!(verdict(100.0, 130.0, false, 0.10, Some(0.15)), Regressed);
        assert_eq!(verdict(100.0, 70.0, false, 0.10, Some(0.15)), Improved);
    }

    #[test]
    fn spec_metrics_reads_direction_and_bound() {
        let spec = Json::parse(
            r#"{"end_to_end":[{"name":"a","unit":"ms","better":"lower","bound":0.1},
                              {"name":"b","unit":"1/s","better":"higher","bound":0.2}]}"#,
        )
        .unwrap();
        assert_eq!(
            spec_metrics(&spec).unwrap(),
            vec![("a".to_string(), false, 0.1), ("b".to_string(), true, 0.2)]
        );
        let bad = Json::parse(r#"{"end_to_end":[{"name":"a","better":"sideways","bound":0.1}]}"#);
        assert!(spec_metrics(&bad.unwrap()).is_err());
    }
}
