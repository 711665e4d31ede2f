//! `perq-benchmark compare A B`: applies the benchmark's own bounds to
//! two result files (the `--out` of `run`), one row per workload and
//! metric.
//!
//! - **end-to-end** metrics: medians over each file's runs of the
//!   workload. B is *worse* when its median is worse than A's by more
//!   than the metric's bound, *better* when it is better by more than
//!   the bound, *unresolved* when either side's own spread (quartile
//!   distance over median) is wider than the bound, *same* otherwise.
//! - **exact** metrics (counts and simulated quantities) and **digests**
//!   are compared run by run at equal seeds and must be identical.
//!
//! Files built against different dependency modes are never compared.

use crate::json::{self, Value};
use crate::metrics::{find_metric, median, quartiles, Better};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

struct Record {
    workload: String,
    trace: bool,
    seed: u64,
    digest: String,
    deps: String,
    smoke: bool,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let v = json::parse(line).map_err(|e| bad(&e))?;
        let field = |key: &str| v.get(key).ok_or_else(|| bad(&format!("no \"{key}\"")));
        let stamp = field("stamp")?;
        let result = field("result")?;
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("no metrics"))?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        records.push(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            trace: field("trace")?.as_f64() == Some(1.0),
            seed: stamp.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            digest: field("digest")?.as_str().unwrap_or_default().to_string(),
            deps: stamp
                .get("deps")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            smoke: stamp.get("smoke") == Some(&Value::Bool(true)),
            correct: result.get("correct") == Some(&Value::Bool(true)),
            metrics,
        });
    }
    if records.is_empty() {
        return Err(format!("{}: no records", path.display()));
    }
    Ok(records)
}

/// Quartile distance over median; 0 with fewer than two values.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

fn values_of(records: &[Record], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

pub fn compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    let mode = |rs: &[Record]| (rs[0].deps.clone(), rs[0].smoke);
    if a.iter()
        .chain(&b)
        .any(|r| (r.deps.clone(), r.smoke) != mode(&a))
    {
        return Err(
            "the files mix dependency modes (registry/shims) or smoke and full sizes; \
             such results are never compared"
                .into(),
        );
    }

    let mut worse = 0;
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    println!(
        "{:<16} {:<36} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for workload in workloads {
        for r in a
            .iter()
            .chain(&b)
            .filter(|r| r.workload == workload && !r.correct)
        {
            println!(
                "{workload:<16} a run of seed {} failed its output checks: worse",
                r.seed
            );
            worse += 1;
        }
        // Run-by-run at equal seeds: digests and exact metrics.
        for ra in a.iter().filter(|r| r.workload == workload) {
            for rb in b
                .iter()
                .filter(|r| r.workload == workload && r.trace == ra.trace && r.seed == ra.seed)
            {
                if ra.digest != rb.digest {
                    println!(
                        "{workload:<16} {:<36} {:>14} {:>14} {:>8}  worse (must be identical)",
                        format!("digest (seed {})", ra.seed),
                        ra.digest,
                        rb.digest,
                        ""
                    );
                    worse += 1;
                }
                for (name, &va) in &ra.metrics {
                    let exact = find_metric(name).is_some_and(|m| m.exact);
                    let vb = rb.metrics.get(name).copied();
                    if exact && vb != Some(va) {
                        println!(
                            "{workload:<16} {:<36} {va:>14.6} {:>14.6} {:>8}  worse (must be identical)",
                            format!("{name} (seed {})", ra.seed),
                            vb.unwrap_or(f64::NAN),
                            ""
                        );
                        worse += 1;
                    }
                }
            }
        }
        // Medians against bounds: every metric that carries one.
        let names: Vec<&String> = a
            .iter()
            .filter(|r| r.workload == workload && !r.trace)
            .flat_map(|r| r.metrics.keys())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for name in names {
            let Some(def) = find_metric(name) else {
                continue;
            };
            let Some(bound) = def.bound else { continue };
            let (va, vb) = (
                values_of(&a, workload, false, name),
                values_of(&b, workload, false, name),
            );
            if vb.is_empty() {
                println!("{workload:<16} {name:<36} missing from B: worse");
                worse += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
            let worsening = match def.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let verdict = if spread(&va) > bound || spread(&vb) > bound {
                "unresolved (spread wider than bound)"
            } else if worsening > bound {
                worse += 1;
                "worse"
            } else if worsening < -bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{workload:<16} {name:<36} {ma:>14.6} {mb:>14.6} {:>+7.1}%  {verdict} (bound {:.1}%, n={}/{})",
                change * 100.0,
                bound * 100.0,
                va.len(),
                vb.len()
            );
        }
    }
    println!("{worse} row(s) worse");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
