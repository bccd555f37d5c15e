//! Shared experiment setup for the table/figure binaries.

use impress_core::adaptive::AdaptivePolicy;
use impress_core::experiment::{run_cont_v_experiment, run_imrp, ExperimentResult};
use impress_core::{ProtocolConfig, Table1Row};
use impress_pilot::{ClusterSpec, NodeSpec, PlacementPolicy, ResourceRequest, Scheduler, TaskId};
use impress_proteins::datasets::{mined_pdz_complexes, named_pdz_domains};
use impress_proteins::MetricKind;
use std::str::FromStr;

/// Master seed used by all paper harnesses; override with the
/// `IMPRESS_SEED` environment variable.
pub fn master_seed() -> u64 {
    env_or("IMPRESS_SEED", 2025)
}

/// The environment variable `key`, or `default` when it is unset. A value
/// that is set but does not parse ends the process: falling back would
/// regenerate the default artifacts (or time the default budget) under a
/// reader who asked for different ones.
pub(crate) fn env_or<T: FromStr>(key: &str, default: T) -> T {
    let var = std::env::var(key).ok();
    parse_var(key, var.as_deref(), default).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

fn parse_var<T: FromStr>(key: &str, var: Option<&str>, default: T) -> Result<T, String> {
    let kind = std::any::type_name::<T>();
    match var {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{key}={text:?} does not parse as {kind}")),
    }
}

/// The deterministic heterogeneous task stream shaped like the protocol's
/// workload (6-core MSAs, 1-GPU inference/MPNN pairs, 1-core bookkeeping).
pub fn task_stream(n: usize) -> Vec<ResourceRequest> {
    (0..n)
        .map(|i| match i % 5 {
            0 => ResourceRequest::cores(6),        // MSA
            1 => ResourceRequest::with_gpus(2, 1), // inference
            2 => ResourceRequest::with_gpus(2, 1), // MPNN
            _ => ResourceRequest::cores(1),        // bookkeeping
        })
        .collect()
}

/// One full scheduler cycle: enqueue `stream`, then alternate placement
/// rounds with single releases until everything has run. Returns the task
/// count (for `black_box`ing). This is the placement-throughput kernel of
/// `benches/scheduler.rs`.
pub fn placement_cycle(policy: PlacementPolicy, nodes: u32, stream: &[ResourceRequest]) -> usize {
    let cluster = ClusterSpec::homogeneous(NodeSpec::amarel(), nodes);
    let mut s = Scheduler::new_cluster(cluster, policy);
    for (i, req) in stream.iter().enumerate() {
        s.enqueue(TaskId(i as u64), *req);
    }
    let mut running = Vec::new();
    let mut done = 0usize;
    while done < stream.len() {
        for pair in s.place_ready() {
            running.push(pair);
        }
        if let Some((_, alloc)) = running.pop() {
            done += 1;
            s.release(&alloc);
        }
    }
    done
}

/// Both arms of the paper's primary (4-domain) experiment.
pub struct PaperExperiment {
    /// The sequential control arm.
    pub cont_v: ExperimentResult,
    /// The adaptive arm.
    pub imrp: ExperimentResult,
    /// Number of design targets.
    pub structures: usize,
}

/// Run the primary experiment: 4 named PDZ domains × α-synuclein 10-mer,
/// 4 design cycles, CONT-V vs IM-RP, on the simulated Amarel node.
pub fn paper_experiment(seed: u64) -> PaperExperiment {
    let targets = named_pdz_domains(seed);
    let cont_v = run_cont_v_experiment(&targets, ProtocolConfig::cont_v(seed));
    let imrp = run_imrp(
        &targets,
        ProtocolConfig::imrp(seed),
        AdaptivePolicy::default(),
    );
    PaperExperiment {
        cont_v,
        imrp,
        structures: targets.len(),
    }
}

impl PaperExperiment {
    /// Table I rows (CONT-V first, like the paper).
    pub fn table1(&self) -> (Table1Row, Table1Row) {
        (
            Table1Row::from_result(&self.cont_v, self.structures),
            Table1Row::from_result(&self.imrp, self.structures),
        )
    }
}

/// Run the expanded experiment (Fig. 3): `n` mined PDZ–peptide complexes ×
/// α-synuclein 4-mer, adaptivity *not* enforced in the final cycle.
pub fn expanded_experiment(seed: u64, n: usize) -> ExperimentResult {
    let targets = mined_pdz_complexes(seed, n);
    let mut config = ProtocolConfig::imrp(seed);
    config.adaptive_final_cycle = false;
    run_imrp(
        &targets,
        config,
        AdaptivePolicy {
            // The paper's expanded run spawned 96 sub-pipelines over 70
            // complexes; scale the budget with the target count.
            sub_budget: n * 96 / 70,
            ..AdaptivePolicy::default()
        },
    )
}

/// Print one Fig. 2/3-style panel: per-iteration median ± σ/2 for a metric.
pub fn print_metric_panel(result: &ExperimentResult, metric: MetricKind) {
    let series = result.series(metric);
    println!(
        "  {:<6} {}",
        metric.label(),
        if metric.higher_is_better() {
            "(higher is better)"
        } else {
            "(lower is better)"
        }
    );
    for ((it, summary), half) in series
        .iterations
        .iter()
        .zip(&series.summaries)
        .zip(series.half_stds())
    {
        println!(
            "    iter {it}: median {:>8.3}  ± {:>6.3} (σ/2)   [n={}]",
            summary.median, half, summary.n
        );
    }
}

/// Render a Fig. 2/3-style grouped bar panel: one bar per iteration, bar
/// height = median, whisker = ± half σ, scaled into `height` text rows.
/// `groups` pairs a label with (medians, half_stds) series.
pub fn bar_panel(
    metric: impress_proteins::MetricKind,
    iterations: &[u32],
    groups: &[(&str, Vec<f64>, Vec<f64>)],
    height: usize,
) -> String {
    assert!(height >= 4, "panel too short");
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, meds, errs) in groups {
        for (m, e) in meds.iter().zip(errs) {
            lo = lo.min(m - e);
            hi = hi.max(m + e);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        return format!("{metric}: (no data)\n");
    }
    let pad = ((hi - lo) * 0.15).max(1e-9);
    let (lo, hi) = (lo - pad, hi + pad);
    let row_of =
        |v: f64| -> usize { (((v - lo) / (hi - lo)) * (height - 1) as f64).round() as usize };
    // Columns: per iteration, one bar per group plus a spacer.
    let ncols = iterations.len() * (groups.len() + 1);
    let mut grid = vec![vec![' '; ncols]; height];
    for (it_idx, _) in iterations.iter().enumerate() {
        for (g_idx, (_, meds, errs)) in groups.iter().enumerate() {
            let Some(&median) = meds.get(it_idx) else {
                continue;
            };
            let err = errs.get(it_idx).copied().unwrap_or(0.0);
            let col = it_idx * (groups.len() + 1) + g_idx;
            let bar_top = row_of(median);
            for row in grid.iter_mut().take(bar_top + 1) {
                row[col] = if g_idx == 0 { '█' } else { '▓' };
            }
            let (w_lo, w_hi) = (row_of(median - err), row_of(median + err));
            for row in grid.iter_mut().take(w_hi + 1).skip(w_lo) {
                if row[col] == ' ' {
                    row[col] = '|';
                }
            }
        }
    }
    let mut out = format!(
        "{} ({})\n",
        metric.label(),
        if metric.higher_is_better() {
            "higher is better"
        } else {
            "lower is better"
        }
    );
    for r in (0..height).rev() {
        let val = lo + (hi - lo) * r as f64 / (height - 1) as f64;
        out.push_str(&format!(
            "{val:>8.2} {}\n",
            grid[r].iter().collect::<String>()
        ));
    }
    out.push_str("         ");
    for it in iterations {
        out.push_str(&format!("i{it:<width$}", width = groups.len()));
    }
    out.push('\n');
    let legend: Vec<String> = groups
        .iter()
        .enumerate()
        .map(|(i, (label, _, _))| format!("{} {label}", if i == 0 { '█' } else { '▓' }))
        .collect();
    out.push_str(&format!("         {}\n", legend.join("   ")));
    out
}

/// Render a utilization series as a compact ASCII sparkline (one char per
/// bin, 0–100% mapped onto nine levels).
pub fn sparkline(series: &[f64]) -> String {
    const LEVELS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    series
        .iter()
        .map(|v| LEVELS[((v.clamp(0.0, 1.0)) * 8.0).round() as usize])
        .collect()
}

/// Downsample a series to at most `max` points by bin-averaging, so long
/// runs still fit a terminal line.
pub fn downsample(series: &[f64], max: usize) -> Vec<f64> {
    if series.len() <= max || max == 0 {
        return series.to_vec();
    }
    let chunk = series.len().div_ceil(max);
    series
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seed_defaults_when_unset_and_refuses_what_is_not_a_seed() {
        assert_eq!(parse_var("IMPRESS_SEED", None, 2025u64), Ok(2025));
        assert_eq!(parse_var("IMPRESS_SEED", Some("7"), 2025u64), Ok(7));
        assert_eq!(parse_var("IMPRESS_BENCH_MAX_SECS", Some("0.15"), 2.0f64), Ok(0.15));
        assert!(parse_var("IMPRESS_BENCH_MAX_SECS", Some("10k"), 2.0f64).is_err());
        for bad in ["2O25", "", "-1", " 7", "1e3", "10k", "0xCAFE"] {
            let message = parse_var("IMPRESS_SEED", Some(bad), 2025u64).unwrap_err();
            assert!(
                message.contains("IMPRESS_SEED") && message.contains(&format!("{bad:?}")),
                "{message}"
            );
        }
    }

    #[test]
    fn sparkline_maps_levels() {
        assert_eq!(sparkline(&[0.0, 0.5, 1.0]), " ▄█");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn bar_panel_renders_bars_whiskers_and_legend() {
        let text = bar_panel(
            impress_proteins::MetricKind::Plddt,
            &[1, 2],
            &[
                ("A", vec![60.0, 70.0], vec![2.0, 1.0]),
                ("B", vec![65.0, 75.0], vec![1.0, 1.0]),
            ],
            8,
        );
        assert!(text.contains('█'), "{text}");
        assert!(text.contains('▓'), "{text}");
        assert!(text.contains('|'), "whiskers: {text}");
        assert!(text.contains("A") && text.contains("B"));
        assert!(text.contains("i1") && text.contains("i2"));
        // Taller series must produce a taller bar: count ▓ in the top row.
        let top_row = text.lines().nth(1).unwrap();
        assert!(!top_row.contains('█'), "A (60/70) must not reach the top");
    }

    #[test]
    fn bar_panel_handles_empty_series() {
        let text = bar_panel(
            impress_proteins::MetricKind::Ptm,
            &[],
            &[("A", vec![], vec![])],
            8,
        );
        assert!(text.contains("no data"));
    }

    #[test]
    fn downsample_preserves_mean() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ds = downsample(&series, 10);
        assert_eq!(ds.len(), 10);
        let mean_orig: f64 = series.iter().sum::<f64>() / 100.0;
        let mean_ds: f64 = ds.iter().sum::<f64>() / 10.0;
        assert!((mean_orig - mean_ds).abs() < 1e-9);
        assert_eq!(downsample(&series, 200).len(), 100);
    }
}
