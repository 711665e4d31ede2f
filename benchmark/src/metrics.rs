//! The benchmark's vocabulary: workloads, metric tables, and the small
//! statistics the metrics are made of.
//!
//! `BENCHMARK.json` is generated from these tables (`perq-benchmark
//! manifest`), `compare` applies the bounds declared here, and every run
//! is checked against them: each declared metric is printed exactly once,
//! with its declared unit.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression. Per-layer metrics carry
    /// no bound (`None`): they explain, they do not gate.
    pub bound: Option<f64>,
    /// Must repeat exactly for one seed (counts and simulated
    /// quantities); `compare` demands equality instead of a bound.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// One workload and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// Measured seconds per run, as declared in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "serve_mem_2048",
        why: "control plane at scale, PERQ policy, in-memory pipes: serve pump/fan-out, proto codec and core's per-job feedback + grouped path do the work; qp solves 64 pseudo-jobs (2% of a round)",
    },
    WorkloadDef {
        name: "serve_tcp_1024",
        why: "same rig over loopback TCP and epoll: syscalls replace memcpy (63% of a round), so time spent checking vs working shows; a gain on the memory path that costs the socket path appears here",
    },
    WorkloadDef {
        name: "sim_mira",
        why: "the paper's evaluation: Mira at f=2, ~60 concurrent jobs, every decide the exact warm-started MPC at nv~250; the small-problem QP is 99% of an interval, core assembly and sysid adapters under 1%",
    },
    WorkloadDef {
        name: "sim_exact_4096",
        why: "non-default config (group_threshold off): 4096 size-1 jobs, exact QP at nv=16384 beyond L2; same qp layer as sim_mira in the opposite regime, plus core's O(jobs^2) bookkeeping at 18%",
    },
    WorkloadDef {
        name: "sim_hier_64",
        why: "64 enclaves under the coupling-QP coordinator with a 2-thread enclave fan-out: the only workload that runs core.hier and parallel_for_mut; flat workloads bypass both",
    },
];

/// End-to-end metrics: what an operator of the system sees. Every
/// workload reports every one of them, measured on untraced episodes.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("decision_p50_ms", "ms", Better::Lower, 0.25),
    e2e("decision_p90_ms", "ms", Better::Lower, 0.25),
    e2e("intervals_per_s", "1/s", Better::Higher, 0.25),
    e2e("power_use_pct", "%", Better::Higher, 0.01),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// Per-layer metrics, measured on traced episodes and probes. A value
/// of 0 on a workload means the layer is not on that workload's path.
pub const PER_LAYER: &[MetricDef] = &[
    // serve: wrappers at the Poller / Poller::Io seams, harness timing
    // around pump() and tick().
    layer("serve.round.p99_ms", "ms", Better::Lower),
    layer("serve.pump.ms_per_round", "ms", Better::Lower),
    layer("serve.pump.self_ms_per_round", "ms", Better::Lower),
    layer("serve.poll.calls_per_round", "count", Better::Lower),
    layer("serve.poll.ms_per_round", "ms", Better::Lower),
    layer("serve.poll.empty_ratio", "ratio", Better::Lower),
    layer("serve.io.read_calls_per_round", "count", Better::Lower),
    layer("serve.io.read_wouldblock_ratio", "ratio", Better::Lower),
    layer("serve.io.read_ms_per_round", "ms", Better::Lower),
    layer("serve.io.write_calls_per_round", "count", Better::Lower),
    layer("serve.io.write_ms_per_round", "ms", Better::Lower),
    count("serve.io.bytes_in_per_round", "B", Better::Lower),
    count("serve.io.bytes_out_per_round", "B", Better::Lower),
    layer("serve.tick.ms_per_round", "ms", Better::Lower),
    layer("serve.tick.self_ms_per_round", "ms", Better::Lower),
    layer("serve.unattributed_ms_per_round", "ms", Better::Lower),
    count("serve.setcaps_per_round", "count", Better::Lower),
    count("serve.caps_coalesced_total", "count", Better::Lower),
    count("serve.writeoffs_total", "count", Better::Lower),
    // proto: probe over Report/Command values captured from the run.
    layer("proto.codec.encode_ns_per_frame", "ns", Better::Lower),
    layer("proto.codec.decode_ns_per_frame", "ns", Better::Lower),
    count("proto.codec.bytes_per_report", "B", Better::Lower),
    // core: PowerPolicy / BudgetAuthority wrappers, then probes on the
    // policy state and the last PolicyContext of the run.
    layer("core.assign.ms_p50", "ms", Better::Lower),
    layer("core.assign.ms_p99", "ms", Better::Lower),
    count("core.assign.jobs_per_call", "count", Better::Lower),
    layer("core.adapter.update_ns_per_job", "ns", Better::Lower),
    layer("core.targets.generate_ms", "ms", Better::Lower),
    layer("core.grouping.group_ms", "ms", Better::Lower),
    count("core.grouping.groups", "count", Better::Lower),
    layer("core.mpc_assembly.assemble_ms", "ms", Better::Lower),
    layer("core.mpc.decide_ms", "ms", Better::Lower),
    layer("core.assign.other_ms", "ms", Better::Lower),
    layer("core.hier.grant_ms_p50", "ms", Better::Lower),
    count("core.hier.grant_calls", "count", Better::Lower),
    // qp: the program's own counters from a live recorder, then probes.
    count("qp.solves_total", "count", Better::Lower),
    count("qp.iterations_per_solve", "count", Better::Lower),
    count("qp.restarts_total", "count", Better::Lower),
    count("qp.converged_ratio", "ratio", Better::Higher),
    count("qp.deadline_hits_total", "count", Better::Lower),
    count("qp.lmax_cache_hit_ratio", "ratio", Better::Higher),
    count("qp.precision_fallbacks_total", "count", Better::Lower),
    count("qp.nv", "count", Better::Lower),
    layer("qp.solve_ms", "ms", Better::Lower),
    layer("qp.ns_per_iter_per_var", "ns", Better::Lower),
    layer("qp.project_ms", "ms", Better::Lower),
    // sysid: probes on a captured job adapter's building blocks.
    layer("sysid.observer.update_ns", "ns", Better::Lower),
    layer("sysid.rls.update_ns", "ns", Better::Lower),
    // sim: derived from SimResult / HierResult.
    layer("sim.step.self_us_per_interval", "us", Better::Lower),
    count("sim.running_jobs_mean", "count", Better::Higher),
    count("sim.intervals_total", "count", Better::Higher),
    count("sim.budget_violation_intervals", "count", Better::Lower),
    count("sim.jobs_completed", "count", Better::Higher),
    count("sim.fairness_mean_degradation_pct", "%", Better::Lower),
    count("sim.hier.rounds_total", "count", Better::Higher),
    count(
        "sim.hier.enclave_violation_intervals",
        "count",
        Better::Lower,
    ),
    layer("sim.hier.enclave_epoch_ms", "ms", Better::Lower),
    // telemetry: cost of the live recorders plus the wrappers.
    layer("telemetry.live_overhead_pct", "%", Better::Lower),
    count("telemetry.journal_dropped_total", "count", Better::Lower),
];

/// Looks a metric up in either table.
pub fn find_metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The values of one run, keyed by metric name. Setting a metric that
/// is not declared, or setting one twice, is a bug in the benchmark and
/// panics — that is the "printed exactly once" check.
#[derive(Debug, Default)]
pub struct MetricSet {
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find_metric(name).is_some(), "undeclared metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.values.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Fills every metric of `table` not set yet with 0 ("layer not on
    /// this workload's path").
    pub fn fill_absent(&mut self, table: &[MetricDef]) {
        for def in table {
            self.values.entry(def.name).or_insert(0.0);
        }
    }

    /// The values in `table` order; panics if one is missing.
    pub fn in_order(&self, table: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        table
            .iter()
            .map(|def| {
                let value = *self
                    .values
                    .get(def.name)
                    .unwrap_or_else(|| panic!("metric {} was never set", def.name));
                (def, value)
            })
            .collect()
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Splits `samples` into `blocks` consecutive runs of near-equal length.
pub fn split_blocks(samples: &[f64], blocks: usize) -> Vec<&[f64]> {
    if samples.is_empty() {
        return Vec::new();
    }
    samples
        .chunks(samples.len().div_ceil(blocks.max(1)))
        .collect()
}

/// A quartile (`across` = 25 or 75) over blocks of a per-block statistic.
///
/// Host interference — a stolen core, a neighbour thrashing the shared
/// cache — comes in bursts and only ever adds time. Pooled, one burst
/// drags a tail percentile with it. Taken per block, the statistic of
/// the quarter-best block (lower quartile for a latency, upper for a
/// rate) does not move until three quarters of the blocks are hit, while
/// a change to the code moves every block and therefore the quartile.
pub fn quartile_over_blocks(blocks: &[&[f64]], across: f64, stat: impl Fn(&[f64]) -> f64) -> f64 {
    percentile(&sorted(blocks.iter().map(|b| stat(b)).collect()), across)
}

/// First and third quartile by the "exclusive" method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, so spreads agree
/// with the acceptance procedure's.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// FNV-1a, 64 bit: the digest every output check is made of.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}
