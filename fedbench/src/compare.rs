//! `fedbench compare A B --benchmark BENCHMARK.json`
//!
//! A and B are result sets: a file — or a directory of files — holding the
//! captured stdout of any number of fedbench runs. Each run contributes its
//! `fedbench workload=<name> …` header line and its final JSON line. For
//! every workload row and end-to-end metric the two medians are compared
//! under the bound `BENCHMARK.json` fixes:
//!
//! * `regressed` — B is worse than A by more than the bound;
//! * `improved` — B is better than A by more than A's own run-to-run spread
//!   (quartile distance ÷ median; the bound when A has fewer than 4 runs);
//! * `unresolved` — A's spread is wider than the bound, so neither of the
//!   above can be told from noise;
//! * `unchanged` — otherwise.
//!
//! Count metrics (units `B` and `count`) repeat exactly for a given seed, so
//! they are compared with `==`, seed by seed, over the seeds both sets ran;
//! sets with no seed in common fall back to the bound.

use crate::sys::{median, quartiles, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// workload → metric → `(seed, value)`, one per run.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>;

fn read_all(path: &Path) -> Result<String, String> {
    let describe = |e: std::io::Error| format!("{}: {e}", path.display());
    if !path.is_dir() {
        return std::fs::read_to_string(path).map_err(describe);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(describe)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    let mut text = String::new();
    for file in files {
        text.push_str(&read_all(&file)?);
        text.push('\n');
    }
    Ok(text)
}

pub fn parse_result_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let mut run: Option<(String, u64)> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("fedbench workload=") {
            let mut fields = rest.split_whitespace();
            let workload = fields.next().unwrap_or_default().to_string();
            let seed = fields
                .find_map(|f| f.strip_prefix("seed="))
                .and_then(|s| s.parse().ok())
                .ok_or("header line without seed=<n>")?;
            run = Some((workload, seed));
        } else if line.starts_with("{\"correct\"") {
            let (name, seed) = run
                .clone()
                .ok_or("result line before any 'fedbench workload=' header")?;
            let json = Json::parse(line)?;
            let Some(Json::Obj(metrics)) = json.get("metrics") else {
                return Err("result line has no metrics object".into());
            };
            let row = set.entry(name).or_default();
            for (metric, entry) in metrics {
                if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                    row.entry(metric.clone()).or_default().push((seed, value));
                }
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge a count metric seed by seed with `==`; `None` when the two sides
/// share no seed.
pub fn judge_exact(a: &[(u64, f64)], b: &[(u64, f64)], higher_is_better: bool) -> Option<Verdict> {
    let b_by_seed: BTreeMap<u64, f64> = b.iter().copied().collect();
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|(seed, va)| b_by_seed.get(seed).map(|vb| (*va, *vb)))
        .collect();
    if pairs.is_empty() {
        return None;
    }
    let (sum_a, sum_b): (f64, f64) = pairs
        .iter()
        .fold((0.0, 0.0), |(x, y), (va, vb)| (x + va, y + vb));
    Some(if pairs.iter().all(|(va, vb)| va == vb) {
        Verdict::Unchanged
    } else if (sum_b > sum_a) == higher_is_better {
        Verdict::Improved
    } else {
        Verdict::Regressed
    })
}

/// Judge one timing metric: `a`/`b` are the runs of each side.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse.
    let worse_by =
        if higher_is_better { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    let spread = if a.len() >= 4 {
        let (q1, q3) = quartiles(a);
        Some((q3 - q1) / ma.abs().max(f64::MIN_POSITIVE))
    } else {
        None
    };
    match spread {
        Some(s) if s > bound => Verdict::Unresolved,
        _ if worse_by > bound => Verdict::Regressed,
        _ if -worse_by > spread.unwrap_or(bound) => Verdict::Improved,
        _ => Verdict::Unchanged,
    }
}

/// Returns whether any metric regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (mut paths, mut benchmark) = (Vec::new(), None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = Some(it.next().ok_or("--benchmark needs a file")?);
        } else {
            paths.push(arg);
        }
    }
    let [a_path, b_path] = paths[..] else {
        return Err("compare takes exactly two result sets".into());
    };
    let benchmark = benchmark.ok_or("--benchmark <BENCHMARK.json> is required")?;
    let spec = Json::parse(&read_all(Path::new(benchmark))?)?;
    let a = parse_result_set(&read_all(Path::new(a_path))?)?;
    let b = parse_result_set(&read_all(Path::new(b_path))?)?;

    let mut regressed = false;
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for workload in spec
        .get("workloads")
        .map(Json::as_array)
        .unwrap_or_default()
    {
        let Some(name) = workload.get("name").and_then(Json::as_str) else {
            continue;
        };
        let (Some(row_a), Some(row_b)) = (a.get(name), b.get(name)) else {
            println!("{name:<14} (missing from one side)");
            continue;
        };
        for metric in spec
            .get("end_to_end")
            .map(Json::as_array)
            .unwrap_or_default()
        {
            let field = |k: &str| metric.get(k).and_then(Json::as_str).unwrap_or("");
            let (metric_name, unit) = (field("name"), field("unit"));
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(pairs_a), Some(pairs_b)) = (row_a.get(metric_name), row_b.get(metric_name))
            else {
                continue;
            };
            let higher = field("better") == "higher";
            let values = |runs: &[(u64, f64)]| runs.iter().map(|r| r.1).collect::<Vec<f64>>();
            let (va, vb) = (values(pairs_a), values(pairs_b));
            let verdict = Some(())
                .filter(|_| matches!(unit, "B" | "count"))
                .and_then(|_| judge_exact(pairs_a, pairs_b, higher))
                .unwrap_or_else(|| judge(&va, &vb, higher, bound));
            regressed |= verdict == Verdict::Regressed;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{name:<14} {metric_name:<26} {ma:>14.4} {mb:>14.4} {:>+7.2}% {:>5.1}%  {} (n={}/{})",
                (mb / ma - 1.0) * 100.0,
                bound * 100.0,
                verdict.name(),
                va.len(),
                vb.len()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        // lower is better, 5 % bound
        assert_eq!(judge(&steady, &[100.4], false, 0.05), Verdict::Unchanged);
        assert_eq!(judge(&steady, &[106.0], false, 0.05), Verdict::Regressed);
        assert_eq!(judge(&steady, &[90.0], false, 0.05), Verdict::Improved);
        // higher is better flips the direction
        assert_eq!(judge(&steady, &[90.0], true, 0.05), Verdict::Regressed);
        // spread wider than the bound: cannot tell
        let noisy = [100.0, 80.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &[130.0], false, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn counts_compare_with_eq_seed_by_seed() {
        let a = [(1, 7.0), (2, 9.0)];
        assert_eq!(
            judge_exact(&a, &[(2, 9.0), (1, 7.0)], false),
            Some(Verdict::Unchanged)
        );
        assert_eq!(
            judge_exact(&a, &[(1, 7.001), (2, 9.0)], false),
            Some(Verdict::Regressed)
        );
        assert_eq!(judge_exact(&a, &[(1, 6.0)], false), Some(Verdict::Improved));
        // Other seeds ship other literals: nothing to pair, the bound decides.
        assert_eq!(judge_exact(&a, &[(3, 7.5)], false), None);
    }

    #[test]
    fn result_sets_group_by_workload() {
        let text = "fedbench workload=point_hit seed=1 seconds=15\nnoise\n\
                    {\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"m\": {\"value\": 2.5, \"unit\": \"us\"}}}\n\
                    fedbench workload=point_hit seed=2 seconds=15\n\
                    {\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"m\": {\"value\": 3.5, \"unit\": \"us\"}}}\n";
        let set = parse_result_set(text).unwrap();
        assert_eq!(set["point_hit"]["m"], vec![(1, 2.5), (2, 3.5)]);
    }
}
