//! Shared experiment harness for the PERQ benchmark and figure binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! prints the corresponding rows/series; this library holds the shared
//! machinery: policy construction, sweep runners, simple output helpers,
//! and result aggregation. See `DESIGN.md` §2 for the experiment index.

use perq_core::{baselines, NodeModel, PerqConfig, PerqPolicy};
use perq_sim::{
    compare_fairness, Cluster, ClusterConfig, FairPolicy, JobSpec, PowerPolicy, SimResult,
    SystemModel, TraceGenerator,
};

/// The policies compared throughout the evaluation (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Fairness-oriented policy: equal power everywhere.
    Fop,
    /// Smallest job size first.
    Sjs,
    /// Largest job size first (ablation; the paper reports it degrades
    /// throughput).
    Ljs,
    /// Smallest remaining node-hours first (oracle baseline).
    Srn,
    /// The PERQ controller.
    Perq,
    /// PERQ with a throughput-only objective (§3 ablation).
    PerqThroughput,
}

impl PolicyKind {
    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fop => "FOP",
            PolicyKind::Sjs => "SJS",
            PolicyKind::Ljs => "LJS",
            PolicyKind::Srn => "SRN",
            PolicyKind::Perq => "PERQ",
            PolicyKind::PerqThroughput => "PERQ-T",
        }
    }

    /// The four policies of Figs. 6/7/11.
    pub fn headline() -> [PolicyKind; 4] {
        [
            PolicyKind::Fop,
            PolicyKind::Sjs,
            PolicyKind::Srn,
            PolicyKind::Perq,
        ]
    }

    /// Instantiates the policy (PERQ variants reuse a pre-trained model).
    pub fn build(self, model: &NodeModel, config: &PerqConfig) -> Box<dyn PowerPolicy> {
        match self {
            PolicyKind::Fop => Box::new(FairPolicy::new()),
            PolicyKind::Sjs => Box::new(baselines::sjs()),
            PolicyKind::Ljs => Box::new(baselines::ljs()),
            PolicyKind::Srn => Box::new(baselines::srn()),
            PolicyKind::Perq => Box::new(PerqPolicy::with_model(model.clone(), config.clone())),
            PolicyKind::PerqThroughput => {
                let mut cfg = config.clone();
                cfg.mpc.wt_sys *= 1000.0;
                Box::new(PerqPolicy::with_model(model.clone(), cfg))
            }
        }
    }
}

/// Wall-clock measurement helpers shared by the scaling benches'
/// snapshot modes (`qp_scaling`, `hier_scaling`, `serve_scaling`), so
/// every committed `BENCH_*.json` row is produced by the same
/// assemble+solve timing loop instead of three divergent copies.
pub mod timing {
    use std::time::Instant;

    /// Wall time of one call, in seconds.
    pub fn wall_s<F: FnMut()>(mut f: F) -> f64 {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    }

    /// `reps` wall-time samples of `f` in milliseconds, sorted ascending
    /// (ready for [`percentile`]).
    pub fn sample_ms<F: FnMut()>(reps: usize, mut f: F) -> Vec<f64> {
        assert!(reps > 0, "need at least one rep");
        let mut samples: Vec<f64> = (0..reps).map(|_| wall_s(&mut f) * 1e3).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        samples
    }

    /// Median-of-`reps` wall time of `f`, in milliseconds.
    pub fn time_ms<F: FnMut()>(reps: usize, f: F) -> f64 {
        let samples = sample_ms(reps, f);
        samples[samples.len() / 2]
    }

    /// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted
    /// sample set.
    pub fn percentile(sorted: &[f64], p: f64) -> f64 {
        assert!(!sorted.is_empty());
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx]
    }
}

/// Where and with what a `BENCH_*.json` snapshot was recorded, as
/// top-level JSON object members, one per line:
/// `"host_cores": N, "rustc": "...", "deps": "..."`.
/// `deps` is `registry` when the locked `rand` carries a crates.io
/// checksum and `stand-ins` when it does not (a directory source —
/// the offline recipe — has none): stand-in `rand` draws different
/// numbers, so rows recorded under the two are not comparable.
pub fn snapshot_header() -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    let lock = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../Cargo.lock"))
        .unwrap_or_default();
    let deps = match lock
        .split("[[package]]")
        .find(|p| p.contains("name = \"rand\""))
    {
        Some(p) if p.contains("checksum") => "registry",
        Some(_) => "stand-ins",
        None => "unknown",
    };
    format!("\"host_cores\": {host_cores},\n  \"rustc\": \"{rustc}\",\n  \"deps\": \"{deps}\"")
}

/// One row of a Fig. 6/7-style table.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Policy name.
    pub policy: &'static str,
    /// Over-provisioning factor of the run.
    pub f: f64,
    /// Completed jobs.
    pub throughput: usize,
    /// Percent improvement over the f = 1 baseline.
    pub improvement_pct: f64,
    /// Mean degradation vs FOP (degraded jobs only), percent.
    pub mean_degradation_pct: f64,
    /// Max degradation vs FOP, percent.
    pub max_degradation_pct: f64,
}

/// Shared experiment driver for one `(system, f, policy)` cell.
pub struct Evaluation {
    /// System under evaluation.
    pub system: SystemModel,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Trace / noise seed.
    pub seed: u64,
    /// Pre-trained node model for the PERQ variants.
    pub model: NodeModel,
    /// PERQ configuration.
    pub perq_config: PerqConfig,
}

impl Evaluation {
    /// Standard evaluation harness for a system.
    pub fn new(system: SystemModel, duration_s: f64, seed: u64) -> Self {
        let model = perq_core::train_node_model(7).0;
        Evaluation {
            system,
            duration_s,
            seed,
            model,
            perq_config: PerqConfig::default(),
        }
    }

    /// Generates the saturating trace for a given node count.
    pub fn trace(&self, nodes: usize) -> Vec<JobSpec> {
        TraceGenerator::new(self.system.clone(), self.seed)
            .generate_saturating(nodes, self.duration_s)
    }

    /// Runs one policy at an over-provisioning factor.
    pub fn run(&self, f: f64, kind: PolicyKind) -> SimResult {
        let config = ClusterConfig::for_system(&self.system, f, self.duration_s);
        let jobs = self.trace(config.nodes);
        let mut policy = kind.build(&self.model, &self.perq_config);
        Cluster::new(config, jobs, self.seed).run(policy.as_mut())
    }

    /// Runs one policy with a customised cluster configuration.
    pub fn run_with_config(&self, mut config: ClusterConfig, kind: PolicyKind) -> SimResult {
        let jobs = self.trace(config.nodes);
        config.duration_s = self.duration_s;
        let mut policy = kind.build(&self.model, &self.perq_config);
        Cluster::new(config, jobs, self.seed).run(policy.as_mut())
    }

    /// The f = 1 (worst-case provisioned) baseline throughput.
    pub fn baseline_throughput(&self) -> usize {
        self.run(1.0, PolicyKind::Fop).throughput()
    }

    /// Produces the Fig. 6/7 rows for one f: all headline policies against
    /// the shared FOP reference.
    pub fn headline_rows(&self, f: f64, baseline: usize) -> Vec<PolicyRow> {
        let fop = self.run(f, PolicyKind::Fop);
        let mut rows = Vec::new();
        for kind in PolicyKind::headline() {
            let result = if kind == PolicyKind::Fop {
                fop.clone()
            } else {
                self.run(f, kind)
            };
            let fairness = compare_fairness(&result, &fop);
            rows.push(PolicyRow {
                policy: kind.name(),
                f,
                throughput: result.throughput(),
                improvement_pct: improvement_pct(result.throughput(), baseline),
                mean_degradation_pct: fairness.mean_degradation_pct,
                max_degradation_pct: fairness.max_degradation_pct,
            });
        }
        rows
    }
}

/// Percent improvement of `value` over `baseline`.
pub fn improvement_pct(value: usize, baseline: usize) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    100.0 * (value as f64 - baseline as f64) / baseline as f64
}

/// Prints a Fig. 6/7-style table.
pub fn print_rows(rows: &[PolicyRow]) {
    println!(
        "{:<7} {:>4} {:>6} {:>12} {:>11} {:>11}",
        "policy", "f", "jobs", "improv(%)", "meandeg(%)", "maxdeg(%)"
    );
    for r in rows {
        println!(
            "{:<7} {:>4.1} {:>6} {:>12.1} {:>11.1} {:>11.1}",
            r.policy,
            r.f,
            r.throughput,
            r.improvement_pct,
            r.mean_degradation_pct,
            r.max_degradation_pct
        );
    }
}

/// Empirical CDF helper: sorted `(value, cumulative fraction)` pairs.
pub fn cdf(values: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(150, 100), 50.0);
        assert_eq!(improvement_pct(100, 0), 0.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let c = cdf(&[3.0, 1.0, 2.0]);
        assert_eq!(c.len(), 3);
        assert!(c.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert!((c[2].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn headline_contains_four_policies() {
        let names: Vec<&str> = PolicyKind::headline().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["FOP", "SJS", "SRN", "PERQ"]);
    }

    #[test]
    fn evaluation_runs_small_cell() {
        let eval = Evaluation::new(SystemModel::tardis(), 1800.0, 5);
        let result = eval.run(1.5, PolicyKind::Fop);
        assert!(result.intervals.len() == 180);
    }
}
