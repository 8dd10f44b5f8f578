//! `trend` — the bench history in one table.
//!
//! Every optimization PR leaves a `results/BENCH_pr<N>.json` behind
//! (PR 2 micro/e2e, PR 7 raw-speed, PR 8 sharded scale, PR 10 envelope
//! memo), each with its own schema and its own `baseline`/`latest`
//! pair — the baseline block being the numbers frozen when that PR
//! landed (for the earliest file, the seed). Reading the trajectory
//! therefore means opening four files and knowing four layouts. This bin
//! folds them into one report:
//!
//! * a headline table — one row per PR, its signature throughput metric,
//!   baseline → latest with the drift ratio;
//! * the full table — every metric of every file, so regressions hiding
//!   behind a healthy headline still surface.
//!
//! Read-only: parses whatever `results/BENCH_pr*.json` exist (skipping
//! none-such quietly), writes nothing, exits 0 unless no bench file
//! exists at all.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One parsed bench file.
struct BenchFile {
    /// PR number from the filename (`BENCH_pr8.json` → 8).
    pr: u32,
    schema: String,
    mode: String,
    baseline: Vec<(String, f64)>,
    latest: Vec<(String, f64)>,
}

/// Extracts the string value of `"key": "..."` from a JSON text.
fn str_field(text: &str, key: &str) -> Option<String> {
    Some(
        text.split(&format!("\"{key}\": \""))
            .nth(1)?
            .split('"')
            .next()?
            .to_owned(),
    )
}

/// Extracts the flat `"name": number` pairs of the object named `key`.
/// The bench writers emit exactly this shape (no nested objects inside
/// `baseline`/`latest`), so a brace split is a parser.
fn metric_block(text: &str, key: &str) -> Vec<(String, f64)> {
    let Some(body) = text
        .split(&format!("\"{key}\": {{"))
        .nth(1)
        .and_then(|rest| rest.split('}').next())
    else {
        return Vec::new();
    };
    let mut metrics = Vec::new();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if let Ok(value) = value.trim().parse::<f64>() {
            metrics.push((name.trim().trim_matches('"').to_owned(), value));
        }
    }
    metrics
}

fn parse_bench(path: &Path, pr: u32) -> Option<BenchFile> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(BenchFile {
        pr,
        schema: str_field(&text, "schema")?,
        mode: str_field(&text, "mode").unwrap_or_else(|| "?".into()),
        baseline: metric_block(&text, "baseline"),
        latest: metric_block(&text, "latest"),
    })
}

/// The bench files present under `dir`, ascending by PR number.
fn discover(dir: &Path) -> Vec<(u32, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<(u32, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let pr = name
                .strip_prefix("BENCH_pr")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((pr, entry.path()))
        })
        .collect();
    found.sort_unstable_by_key(|&(pr, _)| pr);
    found
}

/// The one metric that summarizes a file, per schema: end-to-end trial
/// rate for the perf tracks, best sharded event rate for the scale
/// track, memo-leg event rate for the exec track. Falls back to
/// the first metric so unknown future schemas still produce a row.
fn headline(file: &BenchFile) -> Option<String> {
    let latest_names: Vec<&str> = file.latest.iter().map(|(n, _)| n.as_str()).collect();
    let pick = match file.schema.as_str() {
        "blackdp-perf/v1" => ["e2e_trials_per_s", "e2e_parallel_ms"]
            .into_iter()
            .find(|n| latest_names.contains(n)),
        "blackdp-scale/v1" => {
            // Best shard count may differ between baseline and latest:
            // headline the fastest sharded configuration of each.
            return latest_names
                .iter()
                .any(|n| n.starts_with("scale_events_per_s_shards"))
                .then(|| "scale_events_per_s_shards* (best)".to_owned());
        }
        "blackdp-exec/v2" => Some("exec_events_per_s_memo"),
        _ => None,
    };
    pick.or_else(|| latest_names.first().copied())
        .map(str::to_owned)
}

/// Looks `name` up in a metric list; the scale headline pseudo-metric
/// resolves to the maximum over the sharded event rates.
fn resolve(metrics: &[(String, f64)], name: &str) -> Option<f64> {
    if name == "scale_events_per_s_shards* (best)" {
        return metrics
            .iter()
            .filter(|(n, _)| n.starts_with("scale_events_per_s_shards"))
            .map(|&(_, v)| v)
            .max_by(|a, b| a.partial_cmp(b).expect("bench metrics are finite"));
    }
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    let files: Vec<BenchFile> = discover(&dir)
        .into_iter()
        .filter_map(|(pr, path)| parse_bench(&path, pr))
        .collect();
    if files.is_empty() {
        eprintln!("trend: no results/BENCH_pr*.json found under {}", dir.display());
        std::process::exit(1);
    }

    println!("==> bench trend: {} file(s) under {}", files.len(), dir.display());
    println!();
    println!("  headline trajectory (each PR's baseline froze at its landing; PR 2's is the seed)");
    println!(
        "  {:<5} {:>18} {:>6}  {:<38} {:>12} {:>12} {:>8}",
        "PR", "schema", "mode", "metric", "baseline", "latest", "drift"
    );
    for file in &files {
        let Some(metric) = headline(file) else {
            continue;
        };
        let base = resolve(&file.baseline, &metric);
        let latest = resolve(&file.latest, &metric);
        let drift = match (base, latest) {
            (Some(b), Some(l)) if b != 0.0 => format!("{:.2}x", l / b),
            _ => "-".into(),
        };
        println!(
            "  {:<5} {:>18} {:>6}  {:<38} {:>12} {:>12} {:>8}",
            format!("pr{}", file.pr),
            file.schema,
            file.mode,
            metric,
            base.map_or("-".into(), fmt_value),
            latest.map_or("-".into(), fmt_value),
            drift
        );
    }

    println!();
    println!("  all metrics");
    let mut out = String::new();
    for file in &files {
        let _ = writeln!(
            out,
            "  pr{} ({}, {} mode)",
            file.pr, file.schema, file.mode
        );
        for (name, latest) in &file.latest {
            let base = resolve(&file.baseline, name);
            let drift = match base {
                Some(b) if b != 0.0 => format!("{:.2}x", latest / b),
                _ => "-".into(),
            };
            let _ = writeln!(
                out,
                "    {:<40} {:>12} {:>12} {:>8}",
                name,
                base.map_or("-".into(), fmt_value),
                fmt_value(*latest),
                drift
            );
        }
    }
    print!("{out}");
}
