//! Deterministic parallel campaign engine.
//!
//! The paper's entire evaluation is a grid of *independent* seeded
//! simulations — budgets × policies × traces × fault plans. This crate
//! runs such grids across worker threads while keeping every observable
//! output **byte-identical to the serial run**:
//!
//! - Each [`Scenario`] is fully specified by data (system, seed, policy
//!   spec, fault spec, workload spec — synthetic generator or SWF trace
//!   file), so a worker needs no shared mutable state.
//! - Every clock involved is simulated; nothing reads wall time except
//!   the per-decision latency samples, which are excluded from
//!   determinism comparisons ([`perq_sim::SimResult::same_simulation`]).
//! - Each worker records into its own `telemetry::Recorder`; the engine
//!   folds them into the caller's recorder in **scenario-index order**
//!   (counters add, histograms merge, journals append), so the merged
//!   export does not depend on thread count or completion order.
//!
//! See DESIGN.md §8 for the worker model and the determinism argument.

pub use perq_sim::{parallel_for_mut, parallel_map};

mod ablation;
pub use ablation::{
    ablation_policies, ablation_table, zoo_ablation_grid, AblationCell, AblationTable,
};

use perq_core::{
    baselines, train_node_model, train_node_model_with, CouplingAuthority, NodeModel, PerqConfig,
    PerqPolicy,
};
use perq_gym::{RewardSpec, ZooDriver, ZooSpec};
use perq_sim::{
    BudgetAuthority, BudgetSchedule, Cluster, ClusterConfig, FairPolicy, FaultPlan, FaultRates,
    HierSim, HierTopology, JobSpec, PowerPolicy, ProportionalAuthority, SimResult,
    SwfImportSummary, SystemModel, TenantSpec, TraceGenerator, TraceSource,
};
use perq_telemetry::{FieldValue, Recorder};
use perq_trace::{parse_swf_report, ParseMode, SwfTrace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Which node model a PERQ scenario trains (cached across the campaign:
/// scenarios sharing a spec share one training run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// The paper's protocol: NPB-like training suite, 10 s interval.
    Npb {
        /// Identification seed.
        seed: u64,
    },
    /// Trained on the evaluation (ECP) suite — the ablation's
    /// "what if the model saw the evaluation apps" arm.
    EcpSuite {
        /// Sampling interval, seconds.
        interval_s: f64,
        /// Excitation record length per application.
        steps_per_app: usize,
        /// Identification seed.
        seed: u64,
    },
}

impl ModelSpec {
    fn train(&self) -> NodeModel {
        match *self {
            ModelSpec::Npb { seed } => train_node_model(seed).0,
            ModelSpec::EcpSuite {
                interval_s,
                steps_per_app,
                seed,
            } => train_node_model_with(perq_apps::ecp_suite(), interval_s, steps_per_app, seed).0,
        }
    }
}

/// The policy a scenario runs — a pure-data description, so scenario
/// files round-trip through serde and two scenarios with equal specs
/// produce bit-identical policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Fairness-oriented policy: equal power everywhere.
    Fop,
    /// Smallest job size first.
    Sjs,
    /// Largest job size first.
    Ljs,
    /// Smallest remaining node-hours first (oracle baseline).
    Srn,
    /// The PERQ controller.
    Perq {
        /// Controller configuration.
        config: PerqConfig,
        /// Node-model training recipe.
        model: ModelSpec,
    },
    /// A policy-zoo citizen (`perq-gym`) driven through its
    /// [`ZooDriver`] adapter: fair-share/greedy baselines, the
    /// tabular-Q bandit or wrapped PERQ — under a selectable reward
    /// shaping whose scores land on the scenario's recorder as
    /// `perq_gym_*` metrics.
    Zoo {
        /// Which zoo citizen runs.
        zoo: ZooSpec,
        /// Reward shaping the driver scores transitions with.
        reward: RewardSpec,
        /// Node-model recipe for the PERQ-based citizens; `None` for
        /// the model-free ones (or to train inline from the citizen's
        /// own training seed — deterministic, but uncached).
        model: Option<ModelSpec>,
    },
}

impl PolicySpec {
    /// The standard PERQ arm: default configuration, NPB model with the
    /// default training seed.
    pub fn perq_default() -> Self {
        let config = PerqConfig::default();
        let model = ModelSpec::Npb {
            seed: config.training_seed,
        };
        PolicySpec::Perq { config, model }
    }

    /// PERQ with an explicit model recipe and otherwise-default config.
    pub fn perq_with_model(model: ModelSpec) -> Self {
        PolicySpec::Perq {
            config: PerqConfig::default(),
            model,
        }
    }

    /// The paper's PERQ-T ablation arm: the system-throughput weight
    /// scaled 1000x, which makes the controller throughput-only.
    pub fn perq_throughput(model: ModelSpec) -> Self {
        let mut config = PerqConfig::default();
        config.mpc.wt_sys *= 1000.0;
        PolicySpec::Perq { config, model }
    }

    /// The standard PERQ arm under a non-default solver precision/layout
    /// profile (`f64_soa`, `mixed_soa`) — the knob a campaign
    /// uses to A/B decide-latency profiles against the `f64_aos`
    /// reference arm. Round-trips through serde like every other spec
    /// field; old scenario files without the field deserialize to the
    /// reference profile.
    pub fn perq_with_profile(profile: perq_core::SolverProfile) -> Self {
        let config = PerqConfig {
            solver_profile: profile,
            ..PerqConfig::default()
        };
        let model = ModelSpec::Npb {
            seed: config.training_seed,
        };
        PolicySpec::Perq { config, model }
    }

    /// A zoo arm under the balanced default shaping, carrying the model
    /// recipe the citizen needs (NPB at the citizen's training seed; the
    /// model-free citizens carry none) so campaign grids share one
    /// training run across zoo and plain-PERQ arms.
    pub fn zoo(zoo: ZooSpec) -> Self {
        let model = zoo.training_seed().map(|seed| ModelSpec::Npb { seed });
        PolicySpec::Zoo {
            zoo,
            reward: RewardSpec::default(),
            model,
        }
    }

    /// [`PolicySpec::zoo`] with an explicit reward shaping.
    pub fn zoo_with_reward(zoo: ZooSpec, reward: RewardSpec) -> Self {
        let model = zoo.training_seed().map(|seed| ModelSpec::Npb { seed });
        PolicySpec::Zoo { zoo, reward, model }
    }

    /// Display name (also what `SimResult::policy` will report).
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Fop => "FOP",
            PolicySpec::Sjs => "SJS",
            PolicySpec::Ljs => "LJS",
            PolicySpec::Srn => "SRN",
            PolicySpec::Perq { .. } => "PERQ",
            PolicySpec::Zoo { zoo, .. } => zoo.name(),
        }
    }

    /// The model spec this policy needs trained, if any.
    fn model_spec(&self) -> Option<&ModelSpec> {
        match self {
            PolicySpec::Perq { model, .. } => Some(model),
            PolicySpec::Zoo { model, .. } => model.as_ref(),
            _ => None,
        }
    }

    /// Instantiates the policy. `models` must hold an entry for this
    /// policy's [`ModelSpec`] (the engine pre-trains them). `Send`
    /// because hierarchical scenarios run one instance per enclave on
    /// the enclave worker pool.
    fn build(&self, models: &BTreeMap<String, NodeModel>) -> Box<dyn PowerPolicy + Send> {
        match self {
            PolicySpec::Fop => Box::new(FairPolicy::new()),
            PolicySpec::Sjs => Box::new(baselines::sjs()),
            PolicySpec::Ljs => Box::new(baselines::ljs()),
            PolicySpec::Srn => Box::new(baselines::srn()),
            PolicySpec::Perq { config, model } => {
                let trained = models
                    .get(&model_key(model))
                    .expect("engine pre-trains every referenced model");
                Box::new(PerqPolicy::with_model(trained.clone(), config.clone()))
            }
            PolicySpec::Zoo { zoo, reward, model } => {
                let trained = model.as_ref().map(|m| {
                    models
                        .get(&model_key(m))
                        .expect("engine pre-trains every referenced model")
                });
                Box::new(ZooDriver::new(zoo.build(trained), reward.clone()))
            }
        }
    }
}

/// Cache key for a [`ModelSpec`] (its Debug form is injective over the
/// spec's fields and deterministic).
fn model_key(spec: &ModelSpec) -> String {
    format!("{spec:?}")
}

/// A campaign could not run a scenario — in practice, a workload trace
/// file that does not exist, does not parse, or yields no jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError {
    /// Scenario the failure belongs to.
    pub scenario: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario '{}': {}", self.scenario, self.message)
    }
}

impl std::error::Error for CampaignError {}

/// Deterministic replay options for an SWF workload. Transforms apply
/// in a fixed order — window slice (in *logged* seconds), arrival
/// scaling, node rescaling onto the scenario system's `N_WP`, runtime
/// clamp — so a spec fully determines the replayed jobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwfReplayOptions {
    /// Arrival-rate scaling factor (the paper's knob; 1.0 = as logged).
    pub arrival_scale: f64,
    /// Optional submit-time window `[start, end)`, sliced before any
    /// other transform.
    pub window_s: Option<(f64, f64)>,
    /// Rescale the log's machine onto the scenario system's `wp_nodes`.
    pub rescale_to_wp: bool,
    /// Optional runtime clamp `[min, max]`, seconds.
    pub clamp_runtime_s: Option<(f64, f64)>,
    /// Power-synthesis seed; `None` uses the scenario seed.
    pub synth_seed: Option<u64>,
    /// Parse leniently (skip malformed lines) instead of failing on the
    /// first one. Lenient is the default: archive logs carry warts.
    pub lenient: bool,
    /// Honour the log's submit times (rebased so the first job arrives
    /// at `t = 0`) instead of making every job ready at `t = 0`. Off by
    /// default — the saturated queue reproduces the paper's setup —
    /// but arrivals are what expose the dead time the simulator
    /// skips. Missing in older scenario files, hence the serde default.
    #[serde(default)]
    pub honor_arrivals: bool,
}

impl Default for SwfReplayOptions {
    fn default() -> Self {
        SwfReplayOptions {
            arrival_scale: 1.0,
            window_s: None,
            rescale_to_wp: true,
            clamp_runtime_s: None,
            synth_seed: None,
            lenient: true,
            honor_arrivals: false,
        }
    }
}

/// Where a scenario's jobs come from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum WorkloadSpec {
    /// The seeded synthetic saturating trace calibrated to the
    /// scenario's [`SystemModel`] (the default, and the pre-SWF
    /// behaviour).
    #[default]
    Synthetic,
    /// A light, fixed-count synthetic stream from the same seeded
    /// generator: the queue drains, so the scenario exercises
    /// arrival/drain dynamics and idle headroom instead of the
    /// paper's saturated queue.
    SyntheticLight {
        /// Number of jobs to generate.
        jobs: usize,
    },
    /// An SWF log replayed through `perq-trace` → [`TraceSource`].
    Swf {
        /// Path to the SWF file, resolved when the scenario runs.
        path: String,
        /// Transform and synthesis options.
        options: SwfReplayOptions,
    },
}

/// Fault injection for a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultSpec {
    /// Plan generated from Poisson rates under a seed (deterministic).
    Generated {
        /// Plan generation seed.
        seed: u64,
        /// Per-step event rates.
        rates: FaultRates,
    },
    /// An explicit, fully materialised plan.
    Plan(FaultPlan),
}

impl FaultSpec {
    fn materialise(&self, steps: usize) -> FaultPlan {
        match self {
            FaultSpec::Generated { seed, rates } => FaultPlan::generate(*seed, steps, rates),
            FaultSpec::Plan(plan) => plan.clone(),
        }
    }
}

/// Which coordinator divides the budget in a hierarchical scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum AuthoritySpec {
    /// The coupling-QP coordinator from `perq-core` (the default).
    #[default]
    CouplingQp,
    /// The closed-form weighted water-fill.
    Proportional,
}

impl AuthoritySpec {
    /// Instantiates the coordinator.
    pub fn build(&self) -> Box<dyn BudgetAuthority> {
        match self {
            AuthoritySpec::CouplingQp => Box::new(CouplingAuthority::new()),
            AuthoritySpec::Proportional => Box::new(ProportionalAuthority),
        }
    }
}

fn default_coordination_intervals() -> usize {
    6
}

/// How a scenario's machine is organised: one flat controller (the
/// paper's setup, and the default so older scenario files keep their
/// meaning), or a coordinator over independent per-enclave controllers
/// (`perq_sim::HierSim`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TopologySpec {
    /// One cluster, one controller.
    #[default]
    Flat,
    /// `count` enclaves under a budget coordinator.
    Enclaves {
        /// Number of enclaves (1 degenerates to the flat controller,
        /// byte-identically).
        count: usize,
        /// Tenant fairness weights, assigned to enclaves round-robin;
        /// empty means one weight-1 tenant.
        #[serde(default)]
        tenant_weights: Vec<f64>,
        /// Coordination epoch length in control intervals.
        #[serde(default = "default_coordination_intervals")]
        coordination_intervals: usize,
        /// The coordinator.
        #[serde(default)]
        authority: AuthoritySpec,
    },
}

impl TopologySpec {
    /// An `Enclaves` spec with the default tenant set, coordination
    /// epoch, and authority — the CLI's `topology=enclaves:N` form.
    pub fn enclaves(count: usize) -> Self {
        TopologySpec::Enclaves {
            count,
            tenant_weights: Vec::new(),
            coordination_intervals: default_coordination_intervals(),
            authority: AuthoritySpec::default(),
        }
    }

    /// The [`HierTopology`] this spec induces, when hierarchical.
    pub fn hier_topology(&self) -> Option<HierTopology> {
        match self {
            TopologySpec::Flat => None,
            TopologySpec::Enclaves {
                count,
                tenant_weights,
                coordination_intervals,
                ..
            } => Some(HierTopology {
                enclaves: *count,
                tenants: tenant_weights
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| TenantSpec::weighted(i, w))
                    .collect(),
                coordination_intervals: *coordination_intervals,
            }),
        }
    }
}

/// One cell of a campaign grid: everything needed to reproduce a single
/// simulation, as data. The power budget is encoded by `f` (the budget
/// is `wp_nodes · TDP` and the machine has `f · wp_nodes` nodes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Label used in logs and journal events.
    pub name: String,
    /// System under evaluation (node counts, trace calibration).
    pub system: SystemModel,
    /// Over-provisioning factor.
    pub f: f64,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Control interval, seconds.
    pub interval_s: f64,
    /// Trace + noise + RAPL seed.
    pub seed: u64,
    /// The policy to run.
    pub policy: PolicySpec,
    /// Optional fault injection.
    pub faults: Option<FaultSpec>,
    /// Job ids whose full power/IPS traces are recorded.
    pub trace_jobs: Vec<u64>,
    /// The workload source (synthetic generator or SWF replay).
    #[serde(default)]
    pub workload: WorkloadSpec,
    /// Flat controller or coordinator-over-enclaves. Defaults to flat
    /// (the paper's setup; older scenario files deserialize to it).
    #[serde(default)]
    pub topology: TopologySpec,
    /// Time-varying power budget (carbon-intensity or price curves).
    /// `None` — the default, and what older scenario files deserialize
    /// to — keeps the flat `wp_nodes · TDP` budget bit-identically.
    /// Flat topologies only: enclave scenarios carry their budget
    /// through the coordinator's grants instead.
    #[serde(default)]
    pub budget_schedule: Option<BudgetSchedule>,
}

impl Scenario {
    /// A standard scenario with the default 10 s interval, no faults,
    /// and no traced jobs.
    pub fn new(
        name: impl Into<String>,
        system: SystemModel,
        f: f64,
        duration_s: f64,
        seed: u64,
        policy: PolicySpec,
    ) -> Self {
        Scenario {
            name: name.into(),
            system,
            f,
            duration_s,
            interval_s: 10.0,
            seed,
            policy,
            faults: None,
            trace_jobs: Vec::new(),
            workload: WorkloadSpec::default(),
            topology: TopologySpec::default(),
            budget_schedule: None,
        }
    }

    /// Installs a time-varying budget schedule (builder style). Only
    /// valid on flat topologies — running an enclave scenario with a
    /// schedule is a [`CampaignError`].
    pub fn with_budget_schedule(mut self, schedule: BudgetSchedule) -> Self {
        self.budget_schedule = Some(schedule);
        self
    }

    /// Switches the scenario onto an SWF workload.
    pub fn with_swf(mut self, path: impl Into<String>, options: SwfReplayOptions) -> Self {
        self.workload = WorkloadSpec::Swf {
            path: path.into(),
            options,
        };
        self
    }

    /// Selects the machine organisation (builder style).
    pub fn with_topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// The cluster configuration this scenario induces.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut config = ClusterConfig::for_system(&self.system, self.f, self.duration_s);
        config.interval_s = self.interval_s;
        config.trace_jobs = self.trace_jobs.clone();
        if let WorkloadSpec::Swf { options, .. } = &self.workload {
            config.honor_arrivals = options.honor_arrivals;
        }
        config
    }

    /// Builds the scenario's job queue: the seeded synthetic saturating
    /// trace, or the SWF file parsed, transformed, and power-synthesised
    /// per the [`SwfReplayOptions`]. Pure function of the scenario spec
    /// and the file's bytes.
    pub fn jobs(&self) -> Result<(Vec<JobSpec>, Option<SwfImportSummary>), CampaignError> {
        let config = self.cluster_config();
        match &self.workload {
            WorkloadSpec::Synthetic => Ok((
                TraceGenerator::new(self.system.clone(), self.seed)
                    .generate_saturating(config.nodes, self.duration_s),
                None,
            )),
            WorkloadSpec::SyntheticLight { jobs } => Ok((
                TraceGenerator::new(self.system.clone(), self.seed).generate(*jobs),
                None,
            )),
            WorkloadSpec::Swf { path, options } => {
                let err = |message: String| CampaignError {
                    scenario: self.name.clone(),
                    message,
                };
                let text = std::fs::read_to_string(path)
                    .map_err(|e| err(format!("cannot read trace '{path}': {e}")))?;
                let mode = if options.lenient {
                    ParseMode::Lenient
                } else {
                    ParseMode::Strict
                };
                let report = parse_swf_report(&text, mode)
                    .map_err(|e| err(format!("trace '{path}': {e}")))?;
                let mut trace: SwfTrace = report.trace;
                if let Some((start, end)) = options.window_s {
                    trace.slice_window(start, end);
                }
                if options.arrival_scale != 1.0 {
                    trace.scale_arrivals(options.arrival_scale);
                }
                if options.rescale_to_wp {
                    trace.rescale_nodes(self.system.wp_nodes);
                }
                if let Some((min_s, max_s)) = options.clamp_runtime_s {
                    trace.clamp_runtime(min_s, max_s);
                }
                let synth_seed = options.synth_seed.unwrap_or(self.seed);
                let (jobs, summary) = TraceSource::new(trace, synth_seed)
                    .with_estimate_factor(self.system.estimate_factor)
                    .with_arrivals(options.honor_arrivals)
                    .jobs();
                if jobs.is_empty() {
                    return Err(err(format!(
                        "trace '{path}' yields no runnable jobs after transforms"
                    )));
                }
                Ok((jobs, Some(summary)))
            }
        }
    }

    /// Runs the scenario in isolation, recording into `recorder`.
    /// Deterministic: two calls with equal specs produce results for
    /// which [`SimResult::same_simulation`] holds and byte-identical
    /// recorder exports.
    ///
    /// Panics when an SWF workload fails to load; [`Scenario::try_run`]
    /// is the fallible form.
    pub fn run(&self, models: &BTreeMap<String, NodeModel>, recorder: Recorder) -> SimResult {
        self.try_run(models, recorder)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Scenario::run`], with workload failures surfaced as errors.
    pub fn try_run(
        &self,
        models: &BTreeMap<String, NodeModel>,
        recorder: Recorder,
    ) -> Result<SimResult, CampaignError> {
        self.try_run_with(models, recorder, 1)
    }

    /// [`Scenario::try_run`] with an explicit enclave worker-thread
    /// count for hierarchical scenarios (ignored for flat ones; the
    /// run is byte-identical at any count either way).
    pub fn try_run_with(
        &self,
        models: &BTreeMap<String, NodeModel>,
        recorder: Recorder,
        enclave_threads: usize,
    ) -> Result<SimResult, CampaignError> {
        let config = self.cluster_config();
        let steps = (config.duration_s / config.interval_s).ceil() as usize;
        let (jobs, import) = self.jobs()?;
        if let Some(summary) = import {
            summary.record_into(&recorder);
        }
        if let Some(topology) = self.topology.hier_topology() {
            if self.budget_schedule.is_some() {
                return Err(CampaignError {
                    scenario: self.name.clone(),
                    message: "budget schedules apply to flat topologies only; enclave \
                              scenarios receive their time-varying budget through the \
                              coordinator's grants"
                        .into(),
                });
            }
            let authority = match &self.topology {
                TopologySpec::Enclaves { authority, .. } => authority.build(),
                TopologySpec::Flat => unreachable!("hier_topology returned Some"),
            };
            let policies: Vec<Box<dyn PowerPolicy + Send>> = (0..topology.enclaves)
                .map(|_| self.policy.build(models))
                .collect();
            let mut sim = HierSim::new(config, jobs, self.seed, topology, policies)
                .with_threads(enclave_threads)
                .with_recorder(recorder)
                .with_authority(authority);
            if let Some(faults) = &self.faults {
                // The flat fault plan lands on enclave 0 — on a
                // 1-enclave topology that is exactly the flat plan,
                // preserving the differential contract.
                sim = sim.with_fault_plan(faults.materialise(steps));
            }
            return Ok(sim.run().combined());
        }
        let mut policy = self.policy.build(models);
        let mut cluster = Cluster::new(config, jobs, self.seed).with_recorder(recorder);
        if let Some(schedule) = &self.budget_schedule {
            cluster = cluster.with_budget_schedule(schedule.clone());
        }
        if let Some(faults) = &self.faults {
            cluster = cluster.with_fault_plan(faults.materialise(steps));
        }
        Ok(cluster.run(policy.as_mut()))
    }
}

/// Campaign execution options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignOptions {
    /// Worker threads; `1` runs strictly serially.
    pub threads: usize,
    /// Worker threads for the enclave fan-out *inside* each
    /// hierarchical scenario (`0`/`1` = serial). Composes with
    /// `threads`: a campaign can parallelise across scenarios, within
    /// them, or both — every combination is byte-identical.
    #[serde(default)]
    pub enclave_threads: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            threads: 1,
            enclave_threads: 1,
        }
    }
}

/// One scenario's outcome.
#[derive(Debug, Serialize)]
pub struct ScenarioOutcome {
    /// The scenario that ran (by value, for self-contained reports).
    pub scenario: Scenario,
    /// Its simulation result.
    pub result: SimResult,
}

/// Runs a scenario grid across up to `opts.threads` workers.
///
/// Results come back in scenario order. If `recorder` is live, each
/// worker records into a private manual-clock recorder and the engine
/// merges them into `recorder` in scenario-index order after the
/// fan-out, then emits one `perq_campaign_scenario` journal event per
/// scenario — so the merged export is a pure function of the grid,
/// independent of thread count and completion order.
pub fn run_campaign(
    scenarios: &[Scenario],
    opts: &CampaignOptions,
    recorder: &Recorder,
) -> Vec<ScenarioOutcome> {
    try_run_campaign(scenarios, opts, recorder).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_campaign`], with workload failures surfaced as errors: every
/// SWF workload is loaded once up front (serially, before any model is
/// trained or worker spawned), so a misnamed trace file fails fast with
/// the scenario's name instead of panicking inside a worker thread.
pub fn try_run_campaign(
    scenarios: &[Scenario],
    opts: &CampaignOptions,
    recorder: &Recorder,
) -> Result<Vec<ScenarioOutcome>, CampaignError> {
    for scenario in scenarios {
        if matches!(scenario.workload, WorkloadSpec::Swf { .. }) {
            scenario.jobs()?;
        }
        // Fail fast (with the scenario's name, before any training or
        // worker spawn) instead of panicking inside a worker thread.
        if scenario.budget_schedule.is_some() && scenario.topology.hier_topology().is_some() {
            return Err(CampaignError {
                scenario: scenario.name.clone(),
                message: "budget schedules apply to flat topologies only; enclave \
                          scenarios receive their time-varying budget through the \
                          coordinator's grants"
                    .into(),
            });
        }
    }
    let models = train_referenced_models(scenarios, opts.threads);
    let collect = recorder.enabled();
    let runs: Vec<(Recorder, SimResult)> = parallel_map(scenarios, opts.threads, |_i, scenario| {
        let worker = if collect {
            Recorder::manual()
        } else {
            Recorder::noop()
        };
        let result = scenario
            .try_run_with(&models, worker.clone(), opts.enclave_threads)
            .unwrap_or_else(|e| panic!("{e}"));
        (worker, result)
    });

    let mut outcomes = Vec::with_capacity(runs.len());
    for (scenario, (worker, result)) in scenarios.iter().zip(runs) {
        // Fixed fold order: scenario index. This is the determinism
        // linchpin — see the crate docs.
        recorder.merge_from(&worker);
        if recorder.enabled() {
            recorder.counter_inc("perq_campaign_scenarios_total");
            recorder.event(
                "perq_campaign_scenario",
                &[
                    ("index", FieldValue::U64(outcomes.len() as u64)),
                    ("seed", FieldValue::U64(scenario.seed)),
                    ("policy", FieldValue::Str(scenario.policy.name())),
                    ("throughput", FieldValue::U64(result.throughput() as u64)),
                    (
                        "budget_violations",
                        FieldValue::U64(result.budget_violations as u64),
                    ),
                    ("faults", FieldValue::U64(result.faults.len() as u64)),
                ],
            );
        }
        outcomes.push(ScenarioOutcome {
            scenario: scenario.clone(),
            result,
        });
    }
    Ok(outcomes)
}

/// Pre-trains every distinct node model the grid references, in
/// parallel, keyed so scenarios sharing a spec share the training run.
fn train_referenced_models(scenarios: &[Scenario], threads: usize) -> BTreeMap<String, NodeModel> {
    let mut specs: Vec<ModelSpec> = Vec::new();
    for scenario in scenarios {
        if let Some(spec) = scenario.policy.model_spec() {
            if !specs.iter().any(|s| s == spec) {
                specs.push(spec.clone());
            }
        }
    }
    let trained = parallel_map(&specs, threads, |_i, spec| spec.train());
    specs
        .into_iter()
        .zip(trained)
        .map(|(spec, model)| (model_key(&spec), model))
        .collect()
}

/// A fig8-style grid: PERQ tracking runs (traced jobs, f = 2) across a
/// seed range, used by the scaling bench and the CLI default.
pub fn fig8_style_grid(
    system: SystemModel,
    duration_s: f64,
    seeds: std::ops::Range<u64>,
) -> Vec<Scenario> {
    seeds
        .map(|seed| {
            let mut s = Scenario::new(
                format!("fig8-seed{seed}"),
                system.clone(),
                2.0,
                duration_s,
                seed,
                PolicySpec::perq_default(),
            );
            s.trace_jobs = (0..16).collect();
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> Vec<Scenario> {
        let system = SystemModel::tardis();
        let mut grid = vec![
            Scenario::new("fop-a", system.clone(), 1.5, 900.0, 3, PolicySpec::Fop),
            Scenario::new("sjs-b", system.clone(), 2.0, 900.0, 4, PolicySpec::Sjs),
            Scenario::new("srn-c", system.clone(), 1.0, 900.0, 5, PolicySpec::Srn),
        ];
        grid[1].faults = Some(FaultSpec::Generated {
            seed: 13,
            rates: FaultRates::aggressive(),
        });
        grid
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let grid = tiny_grid();
        let serial = run_campaign(
            &grid,
            &CampaignOptions {
                threads: 1,
                ..Default::default()
            },
            &Recorder::noop(),
        );
        for threads in [2, 8] {
            let par = run_campaign(
                &grid,
                &CampaignOptions {
                    threads,
                    ..Default::default()
                },
                &Recorder::noop(),
            );
            assert_eq!(par.len(), serial.len());
            for (a, b) in serial.iter().zip(par.iter()) {
                assert_eq!(a.scenario, b.scenario);
                assert!(
                    a.result.same_simulation(&b.result),
                    "scenario {} diverged at {threads} threads",
                    a.scenario.name
                );
            }
        }
    }

    #[test]
    fn exports_are_byte_identical_across_thread_counts() {
        let grid = tiny_grid();
        let export = |threads: usize| {
            let recorder = Recorder::manual();
            run_campaign(
                &grid,
                &CampaignOptions {
                    threads,
                    ..Default::default()
                },
                &recorder,
            );
            (recorder.export_prometheus(), recorder.export_jsonl())
        };
        let (prom1, jsonl1) = export(1);
        assert!(!prom1.is_empty());
        assert!(jsonl1.contains("perq_campaign_scenario"));
        for threads in [2, 8] {
            let (prom, jsonl) = export(threads);
            assert_eq!(prom, prom1, "prometheus diverged at {threads} threads");
            assert_eq!(jsonl, jsonl1, "jsonl diverged at {threads} threads");
        }
    }

    #[test]
    fn fault_specs_materialise_deterministically() {
        let mut scenario = tiny_grid().remove(1);
        scenario.name = "faulty".into();
        let run = || {
            let out = run_campaign(
                std::slice::from_ref(&scenario),
                &CampaignOptions {
                    threads: 1,
                    ..Default::default()
                },
                &Recorder::noop(),
            );
            out.into_iter().next().unwrap().result
        };
        let a = run();
        let b = run();
        assert!(!a.faults.is_empty(), "aggressive rates must apply faults");
        assert!(a.same_simulation(&b));
    }

    #[test]
    fn files_written_before_the_single_loop_still_load() {
        // Scenario and gym-environment JSON recorded while the simulator
        // had an `engine` knob must keep loading: the retired key is
        // ignored.
        fn with_key(json: &str, key: &str) -> String {
            assert!(json.ends_with('}'));
            format!("{},{key}}}", &json[..json.len() - 1])
        }
        let scenario = tiny_grid().remove(1);
        let json = serde_json::to_string(&scenario).unwrap();
        assert!(!json.contains("engine"), "{json}");
        let old = with_key(&json, r#""engine":"event""#);
        assert_eq!(serde_json::from_str::<Scenario>(&old).unwrap(), scenario);

        let env = perq_gym::EnvConfig::tardis(7);
        let old = with_key(&serde_json::to_string(&env).unwrap(), r#""engine":"step""#);
        assert_eq!(
            serde_json::from_str::<perq_gym::EnvConfig>(&old).unwrap(),
            env
        );
    }

    #[test]
    fn scenario_round_trips_through_policy_names() {
        assert_eq!(PolicySpec::Fop.name(), "FOP");
        assert_eq!(PolicySpec::perq_default().name(), "PERQ");
        let grid = fig8_style_grid(SystemModel::tardis(), 600.0, 0..3);
        assert_eq!(grid.len(), 3);
        assert!(grid.iter().all(|s| s.trace_jobs.len() == 16));
        assert_eq!(grid[2].seed, 2);
    }
}
