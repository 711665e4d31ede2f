//! The paper's evaluation (§3) as one table.
//!
//! Every figure and table of the paper is a [`Figure`] row of [`FIGURES`]:
//! an id, the campaign [`Scenario`]s it needs, a reducer from their
//! outcomes to printable [`Table`]s, and the DESIGN.md §2 shapes the
//! tables must show, as named predicates ([`crate::shapes`]). [`run`] is
//! the one entry point (`perq figures`): it prints each selected row's
//! tables, then `PASS`/`FAIL` per predicate. Simulated rows run on
//! `perq-campaign`; the prototype rows (Figs. 11/12) drive `ProtoCluster`,
//! and the timing rows (Fig. 13, overhead) measure in their reducer.

use crate::shapes::{self, Shape};
use perq_apps::{ecp_suite, Sensitivity, TDP_WATTS};
use perq_campaign::{
    parallel_map, run_campaign, CampaignOptions, ModelSpec, PolicySpec, Scenario, ScenarioOutcome,
};
use perq_core::{
    baselines, train_node_model, MpcController, MpcInput, MpcJobState, MpcSettings, NodeModel,
    PerqConfig, PerqPolicy,
};
use perq_proto::{stress::run_stress, ProtoCluster, ProtoConfig};
use perq_rapl::{CapLimits, PowerCapDevice, SimulatedRapl};
use perq_sim::{
    compare_fairness, FairPolicy, JobSpec, JobTrace, PowerPolicy, SimResult, SystemModel,
    TraceGenerator,
};
use perq_sysid::KalmanObserver;
use perq_telemetry::Recorder;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label (policy, application, arm).
    Text(String),
    /// A number, printed with its column's decimals.
    Num(f64),
    /// Nothing to show (a job that is not running in that interval).
    Blank,
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Num(v as f64)
    }
}

/// Builds one table row from values convertible to [`Cell`].
#[macro_export]
macro_rules! row {
    ($($cell:expr),+ $(,)?) => {
        vec![$($crate::figures::Cell::from($cell)),+]
    };
}

/// What a reducer hands to the printer and to the shape predicates:
/// named columns over rows of [`Cell`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Line printed above the column header.
    pub heading: String,
    columns: Vec<(String, usize)>,
    rows: Vec<Vec<Cell>>,
    detail: bool,
}

impl Table {
    /// An empty table. `columns` lists `name` or `name:decimals`
    /// (decimals default to 0), separated by spaces.
    pub fn new(heading: impl Into<String>, columns: &str) -> Self {
        let column = |spec: &str| match spec.rsplit_once(':') {
            Some((name, decimals)) => (name.to_string(), decimals.parse().expect("decimals")),
            None => (spec.to_string(), 0),
        };
        Table {
            heading: heading.into(),
            columns: columns.split_whitespace().map(column).collect(),
            rows: Vec::new(),
            detail: false,
        }
    }

    /// Marks the table as series data (per-interval points): written by
    /// `out=FILE`, left off the terminal.
    pub fn detail(mut self) -> Self {
        self.detail = true;
        self
    }

    /// Appends a row (see [`row!`](crate::row)).
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "row width != column count");
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn column(&self, name: &str) -> usize {
        let at = self.columns.iter().position(|(n, _)| n == name);
        at.unwrap_or_else(|| panic!("table '{}' has no column '{name}'", self.heading))
    }

    /// The number at `(row, column)`; NaN for a blank cell.
    pub fn num(&self, row: usize, column: &str) -> f64 {
        match &self.rows[row][self.column(column)] {
            Cell::Num(v) => *v,
            Cell::Blank => f64::NAN,
            Cell::Text(t) => panic!("column '{column}' holds text ('{t}'), not a number"),
        }
    }

    /// The label at `(row, column)`.
    pub fn text(&self, row: usize, column: &str) -> &str {
        match &self.rows[row][self.column(column)] {
            Cell::Text(t) => t,
            other => panic!("column '{column}' holds {other:?}, not text"),
        }
    }

    /// Overwrites the number at `(row, column)` — how the predicate
    /// tests bend a well-shaped table out of shape.
    pub fn set(&mut self, row: usize, column: &str, value: f64) {
        let at = self.column(column);
        self.rows[row][at] = Cell::Num(value);
    }

    /// The table as aligned text: heading, column header, one line per
    /// row. Labels align left, numbers right.
    pub fn render(&self) -> String {
        let mut lines = vec![String::new(); 1 + self.rows.len()];
        for (c, (name, decimals)) in self.columns.iter().enumerate() {
            let cells = self.rows.iter().map(|row| match &row[c] {
                Cell::Text(t) => t.clone(),
                Cell::Num(v) => format!("{v:.decimals$}"),
                Cell::Blank => "-".to_string(),
            });
            let cells: Vec<String> = std::iter::once(name.clone()).chain(cells).collect();
            let width = cells.iter().map(|t| t.chars().count()).max().unwrap_or(0);
            let left = self.rows.iter().any(|r| matches!(r[c], Cell::Text(_)));
            for (line, text) in lines.iter_mut().zip(&cells) {
                let gap = if c > 0 { "  " } else { "" };
                if left {
                    write!(line, "{gap}{text:<width$}")
                } else {
                    write!(line, "{gap}{text:>width$}")
                }
                .expect("write to String");
            }
        }
        let heading = Some(self.heading.as_str()).filter(|h| !h.is_empty());
        let lines = heading
            .into_iter()
            .chain(lines.iter().map(|l| l.trim_end()));
        lines.flat_map(|l| [l, "\n"]).collect()
    }

    /// Appends one JSON object per row: `fig`, `table` (the heading) and
    /// one member per column (blank cells are `null`).
    fn write_jsonl(&self, fig: &str, out: &mut String) {
        let quote = |s: &str| serde_json::to_string(s).expect("strings encode");
        for row in &self.rows {
            let (fig, table) = (quote(fig), quote(&self.heading));
            write!(out, "{{\"fig\":{fig},\"table\":{table}").expect("write to String");
            for (cell, (name, _)) in row.iter().zip(&self.columns) {
                let value = match cell {
                    Cell::Text(t) => quote(t),
                    Cell::Num(v) if v.is_finite() => format!("{v:?}"),
                    Cell::Num(_) | Cell::Blank => "null".to_string(),
                };
                write!(out, ",{}:{value}", quote(name)).expect("write to String");
            }
            out.push_str("}\n");
        }
    }
}

/// The size a row runs at: `hours=` and `system=` applied to its defaults.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// System the simulated cells run on.
    pub system: SystemModel,
    /// Worker threads for the row's cells (`0`/`1` = serial).
    pub threads: usize,
}

impl Scale {
    fn scenario(&self, name: impl Into<String>, f: f64, seed: u64, policy: PolicySpec) -> Scenario {
        Scenario::new(name, self.system.clone(), f, self.duration_s, seed, policy)
    }
}

/// One row of the evaluation table.
pub struct Figure {
    /// What `fig=` selects.
    pub id: &'static str,
    /// Title line.
    pub title: &'static str,
    /// Default simulated hours; `0.0` for rows of fixed size, which
    /// `hours=` and `system=` leave alone.
    pub hours: f64,
    /// The paper's system for the row's simulated cells.
    pub system: fn() -> SystemModel,
    /// Whether `system=` may move the row: true where the shape does not
    /// depend on the machine, false where the paper's claim is about
    /// that machine's job mix (Figs. 6-9) or about sockets (Fig. 11).
    pub any_system: bool,
    /// The campaign cells the row needs (empty for rows that do not
    /// simulate).
    pub scenarios: fn(&Scale) -> Vec<Scenario>,
    /// Outcomes (in scenario order) → tables.
    pub reduce: fn(&Scale, &[ScenarioOutcome]) -> Vec<Table>,
    /// What the paper reports, printed under the tables.
    pub paper: &'static str,
    /// The shapes the tables must show.
    pub shapes: &'static [Shape],
}

impl Figure {
    /// A row of fixed size: nothing to simulate, nothing to scale.
    const fn fixed(
        id: &'static str,
        title: &'static str,
        reduce: fn(&Scale, &[ScenarioOutcome]) -> Vec<Table>,
        paper: &'static str,
        shapes: &'static [Shape],
    ) -> Figure {
        Figure {
            id,
            title,
            hours: 0.0,
            system: SystemModel::tardis,
            any_system: false,
            scenarios: |_| Vec::new(),
            reduce,
            paper,
            shapes,
        }
    }
}

/// Percent improvement of `value` over `baseline` (0 over an empty one).
fn improvement_pct(value: usize, baseline: usize) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    100.0 * (value as f64 - baseline as f64) / baseline as f64
}

const NPB_SEED: u64 = 7;

/// The node-model recipe of every PERQ cell outside Fig. 8 and the
/// over-fit ablation arm: the paper's NPB protocol, identification seed 7.
fn npb() -> ModelSpec {
    ModelSpec::Npb { seed: NPB_SEED }
}

const SWEEP_SEED: u64 = 20190622;
const FACTORS: [f64; 6] = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0];
const HEADLINE: [&str; 4] = ["FOP", "SJS", "SRN", "PERQ"];
const HEADLINE_COLUMNS: &str = "policy f:1 jobs improv(%):1 meandeg(%):1 maxdeg(%):1";

/// The f = 1 FOP baseline, then FOP / SJS / SRN / PERQ at each of
/// `factors`, on the trace of `seed`; PERQ's node model is the NPB
/// protocol's at identification seed `model_seed`.
fn headline_scenarios(scale: &Scale, factors: &[f64], seed: u64, model_seed: u64) -> Vec<Scenario> {
    let perq = PolicySpec::perq_with_model(ModelSpec::Npb { seed: model_seed });
    let specs = [PolicySpec::Fop, PolicySpec::Sjs, PolicySpec::Srn, perq];
    let mut grid = vec![scale.scenario("baseline", 1.0, seed, PolicySpec::Fop)];
    for &f in factors {
        for (name, spec) in HEADLINE.iter().zip(&specs) {
            grid.push(scale.scenario(format!("{name}-f{f}"), f, seed, spec.clone()));
        }
    }
    grid
}

/// A Fig. 6-style table off the figure rows' seeds — how
/// `tests/integration.rs` holds its own Tardis cells to the sweep
/// predicates.
pub fn headline(scale: &Scale, factors: &[f64], seed: u64, model_seed: u64) -> Vec<Table> {
    let cells = headline_scenarios(scale, factors, seed, model_seed);
    headline_table(scale, &simulate(&cells, scale.threads))
}

/// One Fig. 6-style row: throughput improvement over the f = 1 baseline,
/// degradation vs FOP at the same f.
fn headline_row(
    (name, f): (&str, f64),
    result: &SimResult,
    fop: &SimResult,
    baseline: usize,
) -> Vec<Cell> {
    let fairness = compare_fairness(result, fop);
    row![
        name,
        f,
        result.throughput(),
        improvement_pct(result.throughput(), baseline),
        fairness.mean_degradation_pct,
        fairness.max_degradation_pct,
    ]
}

/// Fig. 6/7-style table from [`headline_scenarios`]' outcomes.
fn headline_table(_: &Scale, outcomes: &[ScenarioOutcome]) -> Vec<Table> {
    let baseline = outcomes[0].result.throughput();
    let heading = format!("baseline f=1.0 throughput = {baseline} jobs");
    let mut table = Table::new(heading, HEADLINE_COLUMNS);
    for cells in outcomes[1..].chunks(HEADLINE.len()) {
        for (name, cell) in HEADLINE.iter().zip(cells) {
            let row = (*name, cell.scenario.f);
            table.push(headline_row(row, &cell.result, &cells[0].result, baseline));
        }
    }
    vec![table]
}

fn table1(_: &Scale, _: &[ScenarioOutcome]) -> Vec<Table> {
    let mut table = Table::new("", "application domain profile(%) measured(%):1");
    for (i, app) in ecp_suite().iter().enumerate() {
        // Two full phase cycles uncapped, metered by the RAPL simulation.
        let mut rapl = SimulatedRapl::new(CapLimits::new(90.0, TDP_WATTS), 0.0, 0.0, i as u64);
        let steps = (2.0 * app.cycle_s()).ceil() as usize;
        let total: f64 = (0..steps)
            .map(|k| rapl.advance(1.0, app.phase(k as f64).demand_frac * TDP_WATTS))
            .sum();
        table.push(row![
            app.name.as_str(),
            app.domain.as_str(),
            100.0 * app.avg_power_frac(),
            100.0 * total / steps as f64 / TDP_WATTS,
        ]);
    }
    vec![table]
}

fn fig1(_: &Scale, _: &[ScenarioOutcome]) -> Vec<Table> {
    let runtimes_h = |system: SystemModel, seed: u64| -> Vec<f64> {
        let jobs = TraceGenerator::new(system, seed).generate(50_000);
        let mut hours: Vec<f64> = jobs.iter().map(|j| j.runtime_tdp_s / 3600.0).collect();
        hours.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        hours
    };
    let cdf_at =
        |sorted: &[f64], x: f64| sorted.partition_point(|&v| v <= x) as f64 / sorted.len() as f64;
    let systems = [
        ("Mira", runtimes_h(SystemModel::mira(), 1)),
        ("Trinity", runtimes_h(SystemModel::trinity(), 2)),
    ];
    let mut cdf = Table::new(
        "CDF of job runtimes (synthetic traces calibrated to the published statistics)",
        "runtime(h):2 Mira:3 Trinity:3",
    );
    for x in [0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0] {
        cdf.push(row![x, cdf_at(&systems[0].1, x), cdf_at(&systems[1].1, x)]);
    }
    let mut stats = Table::new("", "system mean(min) >30min(%)");
    for (name, hours) in &systems {
        let mean_min = hours.iter().sum::<f64>() / hours.len() as f64 * 60.0;
        stats.push(row![*name, mean_min, 100.0 * (1.0 - cdf_at(hours, 0.5))]);
    }
    vec![cdf, stats]
}

fn fig2(_: &Scale, _: &[ScenarioOutcome]) -> Vec<Table> {
    let suite = ecp_suite();
    let app = |name: &str| suite.iter().find(|a| a.name == name).expect("app exists");
    let apps = [app("HPCCG"), app("miniMD"), app("RSBench")];
    // Two full cycles of the longest app, 40 samples of 5 s metering.
    let horizon = apps.iter().map(|a| a.cycle_s()).fold(0.0, f64::max) * 2.0;
    let mut rapls: Vec<SimulatedRapl> = (0..apps.len())
        .map(|i| SimulatedRapl::new(CapLimits::new(90.0, TDP_WATTS), 0.0, 0.005, i as u64))
        .collect();
    let mut profile = Table::new(
        "power over runtime at TDP cap (watts)",
        "t(%) HPCCG:1 miniMD:1 RSBench:1",
    );
    for k in 0..=40 {
        let t = horizon * k as f64 / 40.0;
        let mut cells = row![2.5 * k as f64];
        for (app, rapl) in apps.iter().zip(rapls.iter_mut()) {
            let watts = rapl.advance(5.0, app.phase(t).demand_frac * TDP_WATTS);
            cells.push(watts.into());
        }
        profile.push(cells);
    }
    let mut ranges = Table::new("", "application min(W) max(W)");
    for app in apps {
        let demand = app.phases.iter().map(|p| p.demand_frac * TDP_WATTS);
        let lo = demand.clone().fold(f64::INFINITY, f64::min);
        ranges.push(row![app.name.as_str(), lo, demand.fold(0.0, f64::max)]);
    }
    vec![profile, ranges]
}

fn fig3(_: &Scale, _: &[ScenarioOutcome]) -> Vec<Table> {
    let suite = ecp_suite();
    let classes = [Sensitivity::Low, Sensitivity::Medium, Sensitivity::High];
    let tables = classes.into_iter().map(|class| {
        let apps: Vec<_> = suite.iter().filter(|a| a.sensitivity == class).collect();
        let columns: String = apps.iter().map(|a| format!(" {}:1", a.name)).collect();
        let mut table = Table::new(
            format!("-- {class:?} sensitivity: % of performance at 290 W --"),
            &format!("cap(W){columns}"),
        );
        for cap_w in [90.0, 115.0, 140.0, 165.0, 190.0, 215.0, 240.0, 265.0, 290.0] {
            let perf = |a: &&perq_apps::AppProfile| 100.0 * a.curve.perf_frac(cap_w / TDP_WATTS);
            let cells = std::iter::once(cap_w).chain(apps.iter().map(perf));
            table.push(cells.map(Cell::Num).collect());
        }
        table
    });
    tables.collect()
}

fn fig8_scenarios(scale: &Scale) -> Vec<Scenario> {
    // Trace a handful of early jobs with different sizes and apps.
    let mut scenario = scale.scenario("fig8", 2.0, 8, PolicySpec::perq_default());
    scenario.trace_jobs = (0..16).collect();
    vec![scenario]
}

fn fig8(_: &Scale, outcomes: &[ScenarioOutcome]) -> Vec<Table> {
    let result = &outcomes[0].result;
    let record = |id: u64| {
        let found = result.records.iter().find(|r| r.spec.id == id);
        found.expect("a traced job has a record")
    };
    // The four longest-running traced jobs with distinct applications.
    let mut by_length: Vec<(u64, usize)> = result
        .traces
        .iter()
        .map(|(&id, t)| (id, t.points.len()))
        .collect();
    by_length.sort_by_key(|&(id, len)| (std::cmp::Reverse(len), id));
    let mut picked: Vec<u64> = Vec::new();
    for (id, _) in by_length {
        let app = &record(id).app_name;
        if picked.len() < 4 && !picked.iter().any(|&p| &record(p).app_name == app) {
            picked.push(id);
        }
    }
    let mut panels = Table::new(
        "tracking after convergence (interval 7 on): signed mean offset of IPS from the job \
         target, and the mean spread around that offset",
        "panel job app nodes runtime(h):2 points offset(%):1 spread(%):1",
    );
    let mut points = Table::new("trace points", "panel job t(s) cap(kW):3 target_ips ips").detail();
    for (panel, &id) in picked.iter().enumerate() {
        let (rec, trace) = (record(id), &result.traces[&id]);
        let label = ((b'a' + panel as u8) as char).to_string();
        for p in &trace.points {
            let cap_kw = p.cap_w * rec.spec.size as f64 / 1000.0;
            let mut cells = row![label.as_str(), id as usize, p.t_s, cap_kw];
            cells.extend([p.target_ips.map_or(Cell::Blank, Cell::Num), p.ips.into()]);
            points.push(cells);
        }
        let settled = trace.points.iter().skip(6);
        let errors: Vec<f64> = settled
            .filter_map(|p| p.target_ips.map(|t| (p.ips - t) / t))
            .collect();
        let n = errors.len().max(1) as f64;
        let offset = errors.iter().sum::<f64>() / n;
        let spread = errors.iter().map(|e| (e - offset).abs()).sum::<f64>() / n;
        panels.push(row![
            label.as_str(),
            id as usize,
            rec.app_name.as_str(),
            rec.spec.size,
            rec.runtime_s() / 3600.0,
            trace.points.len(),
            100.0 * offset,
            100.0 * spread,
        ]);
    }
    vec![panels, points]
}

const INTERVALS: [f64; 6] = [5.0, 10.0, 20.0, 40.0, 60.0, 120.0];

fn fig9_scenarios(scale: &Scale) -> Vec<Scenario> {
    let mut grid = Vec::new();
    for interval in INTERVALS {
        for policy in [PolicySpec::Fop, PolicySpec::perq_with_model(npb())] {
            let name = format!("fig9-{interval}s-{}", policy.name());
            let mut scenario = scale.scenario(name, 2.0, 9, policy);
            scenario.interval_s = interval;
            grid.push(scenario);
        }
    }
    grid
}

fn fig9(_: &Scale, outcomes: &[ScenarioOutcome]) -> Vec<Table> {
    let mut table = Table::new(
        "f = 2.0: PERQ per control interval, degradation vs FOP at the same interval",
        "interval(s) jobs vs-5s-bar(%):2 meandeg(%):1 maxdeg(%):1",
    );
    let bar = outcomes[1].result.throughput();
    for pair in outcomes.chunks(2) {
        let (fop, perq) = (&pair[0].result, &pair[1].result);
        let fairness = compare_fairness(perq, fop);
        table.push(row![
            pair[1].scenario.interval_s,
            perq.throughput(),
            improvement_pct(perq.throughput(), bar),
            fairness.mean_degradation_pct,
            fairness.max_degradation_pct,
        ]);
    }
    vec![table]
}

/// Fig. 10's three panels: heading, swept values, and how a value lands
/// in the PERQ configuration.
type Panel = (&'static str, [f64; 6], fn(&mut PerqConfig, f64));

const PANELS: [Panel; 3] = [
    (
        "-- (a) system throughput improvement ratio --",
        [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
        |cfg, v| cfg.improvement_ratio = v,
    ),
    (
        "-- (b) system throughput weight --",
        [1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
        |cfg, v| cfg.mpc.wt_sys = v,
    ),
    (
        "-- (c) ΔP weight (the paper's 1..100 scale; ×0.1 in normalized units) --",
        [1.0, 5.0, 10.0, 25.0, 50.0, 100.0],
        |cfg, v| cfg.mpc.w_dp = 0.1 * v,
    ),
];

fn fig10_scenarios(scale: &Scale) -> Vec<Scenario> {
    let mut grid = vec![scale.scenario("fig10-fop", 2.0, 10, PolicySpec::Fop)];
    for (panel, (_, values, configure)) in PANELS.into_iter().enumerate() {
        for v in values {
            let (mut config, model) = (PerqConfig::default(), npb());
            configure(&mut config, v);
            let name = format!("fig10{}-{v}", (b'a' + panel as u8) as char);
            grid.push(scale.scenario(name, 2.0, 10, PolicySpec::Perq { config, model }));
        }
    }
    grid
}

fn fig10(_: &Scale, outcomes: &[ScenarioOutcome]) -> Vec<Table> {
    let fop = &outcomes[0].result;
    let panels = PANELS.iter().zip(outcomes[1..].chunks(6));
    let tables = panels.map(|((heading, values, _), cells)| {
        let mut table = Table::new(*heading, "value jobs vs-bar-1(%):2 meandeg(%):1");
        let bar = cells[0].result.throughput();
        for (v, cell) in values.iter().zip(cells) {
            let jobs = cell.result.throughput();
            let mean_deg = compare_fairness(&cell.result, fop).mean_degradation_pct;
            table.push(row![*v, jobs, improvement_pct(jobs, bar), mean_deg]);
        }
        table
    });
    tables.collect()
}

fn fig11(scale: &Scale, _: &[ScenarioOutcome]) -> Vec<Table> {
    let mut jobs = TraceGenerator::new(SystemModel::tardis(), 11).generate(400);
    // Compress runtimes so each cell spans many control intervals; the
    // queue must stay saturated for the whole window (the paper keeps
    // "always a job available"), so the trace holds several times more
    // work than any policy can finish.
    for j in jobs.iter_mut() {
        j.runtime_tdp_s = j.runtime_tdp_s.clamp(120.0, 1200.0);
        j.runtime_estimate_s = j.runtime_tdp_s * 1.3;
    }
    let intervals = (scale.duration_s / 10.0).round() as usize;
    let model = train_node_model(7).0;
    // One cell per (f, policy); each cluster has its own sockets, so the
    // cells fan out like campaign cells do.
    let cells: Vec<(f64, usize)> = (FACTORS.iter())
        .flat_map(|&f| (0..HEADLINE.len()).map(move |policy| (f, policy)))
        .collect();
    let results = parallel_map(&cells, scale.threads, |_, &(f, policy)| {
        let mut policy: Box<dyn PowerPolicy> = match HEADLINE[policy] {
            "FOP" => Box::new(FairPolicy::new()),
            "SJS" => Box::new(baselines::sjs()),
            "SRN" => Box::new(baselines::srn()),
            _ => Box::new(PerqPolicy::with_model(model.clone(), PerqConfig::default())),
        };
        let cluster = ProtoCluster::new(ProtoConfig::tardis(8, f, intervals));
        let result = cluster.run(jobs.clone(), policy.as_mut());
        result.expect("prototype run")
    });
    let baseline = results[0].throughput();
    let mut table = Table::new(
        format!(
            "prototype: budget of 8 nodes, up to 16 workers, {} queued jobs, {intervals} \
             intervals per cell; baseline f=1.0 throughput = {baseline} jobs",
            jobs.len()
        ),
        &format!("{HEADLINE_COLUMNS} viol"),
    );
    for (f, results) in FACTORS.into_iter().zip(results.chunks(HEADLINE.len())) {
        for (name, result) in HEADLINE.iter().zip(results) {
            let mut cells = headline_row((name, f), result, &results[0], baseline);
            cells.push(result.budget_violations.into());
            table.push(cells);
        }
    }
    vec![table]
}

fn fig12(_: &Scale, _: &[ScenarioOutcome]) -> Vec<Table> {
    let mut config = ProtoConfig::tardis(1, 2.0, 70);
    config.trace_jobs = vec![0, 1];
    let job = |id: u64, app_index: usize, runtime_tdp_s: f64, runtime_estimate_s: f64| JobSpec {
        id,
        app_index,
        size: 1,
        runtime_tdp_s,
        runtime_estimate_s,
        submit_s: 0.0,
    };
    // ASPA (low sensitivity) starts immediately; SimpleMOC (high
    // sensitivity) queues behind it and starts on the second node within
    // the first interval.
    let jobs = vec![job(0, 0, 230.0, 300.0), job(1, 5, 380.0, 480.0)];
    let mut perq = PerqPolicy::new(PerqConfig::default());
    let cluster = ProtoCluster::new(config);
    let result = cluster.run(jobs, &mut perq).expect("prototype run");
    let trace = |id: u64| result.traces.get(&id).cloned().unwrap_or_default();
    let traces: [JobTrace; 2] = [trace(0), trace(1)];
    let mut table = Table::new(
        "PERQ on a 2-node prototype, one node's TDP as budget; perf is % of the job's peak IPS",
        "t(s) ASPA-cap(W):1 ASPA-draw(W):1 ASPA-perf(%):1 SMOC-cap(W):1 SMOC-draw(W):1 \
         SMOC-perf(%):1",
    );
    for k in 0..70 {
        let t = k as f64 * 10.0;
        let mut cells = row![t];
        for trace in &traces {
            let peak = trace.points.iter().map(|p| p.ips).fold(1e-9_f64, f64::max);
            match trace.points.iter().find(|p| (p.t_s - t).abs() < 1e-6) {
                Some(p) => cells.extend(row![p.cap_w, p.power_w, 100.0 * p.ips / peak]),
                None => cells.extend([Cell::Blank, Cell::Blank, Cell::Blank]),
            }
        }
        if k > 3 && cells[1..].iter().all(|c| *c == Cell::Blank) {
            break;
        }
        table.push(cells);
    }
    vec![table]
}

/// Sorted wall times (ms) of `instances` decisions over fresh random job
/// states at the spread of the Mira / Trinity runs. `cell` is (jobs,
/// N_WP, groups); `Some(groups)` caps the QP at that many pseudo-jobs.
fn decision_times_ms(
    ctrl: &MpcController,
    model: &NodeModel,
    (n_jobs, wp_nodes, groups): (usize, f64, Option<usize>),
    instances: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let random_job = |rng: &mut StdRng| {
        let cap = rng.gen_range(0.32..1.0);
        let gain: f64 = rng.gen_range(0.1..2.0);
        let mut obs = KalmanObserver::new(model.ss.clone(), 0.05, 1e-3);
        obs.seed_steady_state(model.curve.eval(cap), gain.min(1.2) * model.curve.eval(cap));
        MpcJobState {
            size: [512usize, 1024, 2048, 4096][rng.gen_range(0usize..4)],
            target: rng.gen_range(0.5..1.0),
            current_cap_frac: cap,
            gain,
            free_response: ctrl.free_response(model, obs.state()),
            curve_value: model.curve.eval(cap),
            curve_slope: model.curve.secant_slope(cap, 0.10),
            bias: rng.gen_range(-0.1..0.1),
            charged: rng.gen_bool(0.6),
        }
    };
    let mut time_one = || {
        let jobs: Vec<MpcJobState> = (0..n_jobs).map(|_| random_job(rng)).collect();
        let input = MpcInput {
            jobs: &jobs,
            system_target: 3.5,
            budget_nodes: jobs.iter().map(|j| j.size as f64).sum::<f64>() * 0.55,
            cap_min_frac: 90.0 / 290.0,
            wp_nodes,
        };
        let t0 = Instant::now();
        let decision = match groups {
            Some(groups) => ctrl.decide_grouped(&input, groups),
            None => ctrl.decide(&input),
        };
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        std::hint::black_box(decision.expect("jobs present"));
        ms
    };
    let mut times_ms: Vec<f64> = (0..instances).map(|_| time_one()).collect();
    times_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times_ms
}

fn fig13(_: &Scale, _: &[ScenarioOutcome]) -> Vec<Table> {
    let instances = 200;
    let (model, _) = train_node_model(13);
    // Concurrent-job counts of the paper's 24 h simulations:
    // Mira ≈ N_OP / mean size ≈ 98304/1894 ≈ 52; Trinity ≈ 38840/1830 ≈ 21.
    // Cells run one after another: concurrent timing cells perturb each
    // other.
    let systems = [("Mira", 52, 49_152.0), ("Trinity", 21, 19_420.0)];
    let mut tables: Vec<Table> = Vec::new();
    for (system, n_jobs, wp_nodes) in systems {
        let mut table = Table::new(
            format!("-- {system}: {n_jobs} concurrent jobs, {instances} instances per horizon --"),
            "horizon p50(ms):2 p80(ms):2 p95(ms):2 max(ms):2 <0.5s(%):1",
        );
        for horizon in [2usize, 3, 4, 5] {
            let settings = MpcSettings {
                horizon,
                ..MpcSettings::default()
            };
            let ctrl = MpcController::new(&model, settings);
            let mut rng = StdRng::seed_from_u64(13 + horizon as u64);
            let cell = (n_jobs, wp_nodes, None);
            let ms = decision_times_ms(&ctrl, &model, cell, instances, &mut rng);
            let pct = |p: f64| ms[((ms.len() as f64 - 1.0) * p) as usize];
            let under = ms.iter().filter(|&&t| t < 500.0).count() as f64 / ms.len() as f64;
            let cells = row![
                horizon,
                pct(0.5),
                pct(0.8),
                pct(0.95),
                pct(1.0),
                100.0 * under
            ];
            table.push(cells);
        }
        tables.push(table);
    }
    let mut grouped = Table::new(
        "-- grouped decisions at scale (§3: \"creating groups of jobs with similar \
         characteristics\"; 64 groups, horizon 4, 30 instances) --",
        "jobs p50(ms):2 max(ms):2",
    );
    let ctrl = MpcController::new(&model, MpcSettings::default());
    for n in [200usize, 1000, 10_000] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let ms = decision_times_ms(&ctrl, &model, (n, 49_152.0, Some(64)), 30, &mut rng);
        grouped.push(row![n, ms[ms.len() / 2], ms[ms.len() - 1]]);
    }
    tables.push(grouped);
    tables
}

fn overhead(_: &Scale, _: &[ScenarioOutcome]) -> Vec<Table> {
    let connections = 4;
    let report = run_stress(100_000, connections);
    let mut table = Table::new(
        "IPS reports collected over persistent localhost connections",
        "clients connections collected(s):3 reports/s",
    );
    let seconds = report.collection_time.as_secs_f64();
    let cells = row![
        report.clients,
        connections,
        seconds,
        report.reports_per_second
    ];
    table.push(cells);
    vec![table]
}

fn ablation_scenarios(scale: &Scale) -> Vec<Scenario> {
    let no_dither = PerqConfig {
        dither_frac: 0.0,
        ..PerqConfig::default()
    };
    // The over-fit check: a model trained on the *evaluation* suite (the
    // paper's protocol trains on NPB only).
    let eval_trained = ModelSpec::EcpSuite {
        interval_s: 10.0,
        steps_per_app: 600,
        seed: 7,
    };
    let no_dither = PolicySpec::Perq {
        config: no_dither,
        model: npb(),
    };
    let arms = [
        ("f=1 baseline", 1.0, PolicySpec::Fop),
        ("FOP", 2.0, PolicySpec::Fop),
        ("PERQ", 2.0, PolicySpec::perq_with_model(npb())),
        ("LJS (largest-first)", 2.0, PolicySpec::Ljs),
        (
            "PERQ-T (thru-only)",
            2.0,
            PolicySpec::perq_throughput(npb()),
        ),
        ("PERQ (no dither)", 2.0, no_dither),
        (
            "PERQ (eval-trained)",
            2.0,
            PolicySpec::perq_with_model(eval_trained),
        ),
    ];
    let cell = |(arm, f, policy)| scale.scenario(arm, f, SWEEP_SEED, policy);
    arms.into_iter().map(cell).collect()
}

fn ablation(_: &Scale, outcomes: &[ScenarioOutcome]) -> Vec<Table> {
    let baseline = outcomes[0].result.throughput();
    let fop = &outcomes[1].result;
    let mut table = Table::new(
        format!("f = 2.0; baseline f=1.0 throughput = {baseline} jobs"),
        "arm jobs improv(%):1 meandeg(%):1 maxdeg(%):1",
    );
    for outcome in &outcomes[1..] {
        let arm = (outcome.scenario.name.as_str(), 2.0);
        let mut cells = headline_row(arm, &outcome.result, fop, baseline);
        cells.remove(1); // every arm runs at f = 2
        table.push(cells);
    }
    vec![table]
}

/// Every table and figure of the paper's evaluation, in the paper's
/// order, then the §3 side experiments.
pub const FIGURES: &[Figure] = &[
    Figure::fixed(
        "table1",
        "Table 1: ECP proxy applications, average power as % of TDP",
        table1,
        "average power 27-69% of TDP across the ten applications",
        &[],
    ),
    Figure::fixed(
        "1",
        "Fig. 1: CDF of job runtimes on Mira and Trinity",
        fig1,
        "Mira mean 72 min, 62% > 30 min | Trinity mean 30 min, 46% > 30 min",
        &[],
    ),
    Figure::fixed(
        "2",
        "Fig. 2: power profiles of HPCCG, miniMD and RSBench over their runtime",
        fig2,
        "HPCCG 100-180 W, miniMD 100-220 W, RSBench 80-140 W",
        &[],
    ),
    Figure::fixed(
        "3",
        "Fig. 3: application performance vs node power cap, by sensitivity class",
        fig3,
        "low-sensitivity apps lose < 20% at 90 W; high-sensitivity > 60%",
        &[],
    ),
    Figure {
        id: "6",
        title: "Fig. 6: Mira - throughput improvement over f = 1 and degradation vs FOP",
        hours: 8.0,
        system: SystemModel::mira,
        any_system: false,
        scenarios: |scale| headline_scenarios(scale, &FACTORS, SWEEP_SEED, NPB_SEED),
        reduce: headline_table,
        paper: "PERQ improvement ~ proportional to f and above SRN > FOP; SJS/SRN mean \
                degradation several times PERQ's; PERQ mean < ~8%, max < ~30% (24 h)",
        shapes: shapes::SWEEP,
    },
    Figure {
        id: "7",
        title: "Fig. 7: Trinity - the Fig. 6 sweep on smaller, shorter jobs",
        hours: 8.0,
        system: SystemModel::trinity,
        any_system: false,
        scenarios: |scale| headline_scenarios(scale, &FACTORS, SWEEP_SEED, NPB_SEED),
        reduce: headline_table,
        paper: "as Fig. 6 with higher absolute improvements; PERQ reaches FOP's f=2.0 \
                throughput at f~1.4 (30% fewer nodes)",
        shapes: shapes::SWEEP,
    },
    Figure {
        id: "8",
        title: "Fig. 8: per-job power cap, target IPS and IPS under PERQ (Trinity, f = 2)",
        hours: 4.0,
        system: SystemModel::trinity,
        any_system: false,
        scenarios: fig8_scenarios,
        reduce: fig8,
        paper: "IPS converges to the target within a few intervals and stays stable; \
                low-sensitivity jobs may run below their power share at no performance cost",
        shapes: shapes::TRACKING,
    },
    Figure {
        id: "9",
        title: "Fig. 9: sensitivity to the control-interval length (Mira)",
        hours: 4.0,
        system: SystemModel::mira,
        any_system: false,
        scenarios: fig9_scenarios,
        reduce: fig9,
        paper: "< 3% throughput loss up to 120 s intervals; mean degradation above 5% \
                only past 40 s",
        shapes: shapes::INTERVAL,
    },
    Figure {
        id: "10",
        title: "Fig. 10: robustness to the control parameters (f = 2)",
        hours: 4.0,
        system: SystemModel::mira,
        any_system: true,
        scenarios: fig10_scenarios,
        reduce: fig10,
        paper: "flat response for ratio >= 4 and across both weight sweeps",
        shapes: shapes::PARAMETERS,
    },
    Figure {
        id: "11",
        title: "Fig. 11: the TCP prototype - the Fig. 6 sweep on real sockets",
        hours: 1000.0 / 360.0,
        system: SystemModel::tardis,
        any_system: false,
        scenarios: |_| Vec::new(),
        reduce: fig11,
        paper: "PERQ up to ~25% over FOP with mean degradation < 10%; SRN/SJS improve \
                less and degrade more (SRN ~2x PERQ's mean, max ~60%); 100 jobs per cell",
        shapes: shapes::PROTOTYPE,
    },
    Figure::fixed(
        "12",
        "Fig. 12: power trading between a low- and a high-sensitivity application",
        fig12,
        "power moves gradually from the low- to the high-sensitivity job; the \
         low-sensitivity job stays near 100% of its peak; allocations swapped by ~150 s",
        shapes::TRADING,
    ),
    Figure::fixed(
        "13",
        "Fig. 13: MPC decision time by prediction horizon",
        fig13,
        "> 80% of decisions within 0.5 s at horizon 4; time grows with horizon",
        shapes::DECISION_TIME,
    ),
    Figure::fixed(
        "overhead",
        "Overhead (§3): the IPS-report communication stress test",
        overhead,
        "100,000 clients collected in 0.19 s over persistent connections",
        &[],
    ),
    Figure {
        id: "tune",
        title: "Tune: the four policies at f = 2 (one Fig. 6 column at its own length)",
        hours: 6.0,
        system: SystemModel::mira,
        any_system: true,
        scenarios: |scale| headline_scenarios(scale, &[2.0], SWEEP_SEED, NPB_SEED),
        reduce: headline_table,
        paper: "see Fig. 6",
        shapes: &[],
    },
    Figure {
        id: "ablation",
        title: "Ablations (§3 side notes): LJS, throughput-only PERQ, no dither, eval-trained",
        hours: 6.0,
        system: SystemModel::mira,
        any_system: true,
        scenarios: ablation_scenarios,
        reduce: ablation,
        paper: "LJS degrades throughput; PERQ-T ~5% more throughput at max degradation \
                near 70%; training on the evaluation apps buys nothing",
        shapes: &[],
    },
];

/// What `perq figures` was asked for.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// `fig=ID`: one row; all rows otherwise.
    pub fig: Option<String>,
    /// `hours=H`: simulated hours of every row that has a length.
    pub hours: Option<f64>,
    /// `system=`: the machine of every row whose shape does not depend
    /// on one ([`Figure::any_system`]); refused with a `fig=` it cannot
    /// move.
    pub system: Option<SystemModel>,
    /// `threads=N`: campaign workers per row (`0`/`1` = serial).
    pub threads: usize,
}

/// The outcome of one [`run`].
#[derive(Debug, Default)]
pub struct Report {
    /// Every table row as one JSON object per line (what `out=` writes).
    pub jsonl: String,
    /// Names of the predicates that failed.
    pub failed: Vec<&'static str>,
}

impl Figure {
    /// The row `fig=id` selects.
    pub fn find(id: &str) -> Option<&'static Figure> {
        FIGURES.iter().find(|f| f.id == id)
    }
}

/// `cells` through the campaign engine on `threads` workers, unrecorded.
fn simulate(cells: &[Scenario], threads: usize) -> Vec<ScenarioOutcome> {
    let options = CampaignOptions {
        threads: threads.max(1),
        ..Default::default()
    };
    run_campaign(cells, &options, &Recorder::noop())
}

/// Runs the selected rows — every row's cells in one campaign, then per
/// row the reducer and its shape predicates. `print` receives each row's
/// text (title, tables, verdict lines). `Err` when `fig=` names no row, or
/// a row that `system=` may not move.
pub fn run(request: &Request, mut print: impl FnMut(&str)) -> Result<Report, String> {
    let selected: Vec<&Figure> = match &request.fig {
        None => FIGURES.iter().collect(),
        Some(id) => vec![Figure::find(id).ok_or_else(|| {
            let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
            format!("unknown fig '{id}' (expected {})", ids.join("|"))
        })?],
    };
    if let (Some(id), Some(_), false) = (&request.fig, &request.system, selected[0].any_system) {
        let movable: Vec<&str> = (FIGURES.iter().filter(|f| f.any_system))
            .map(|f| f.id)
            .collect();
        return Err(format!(
            "system= does not move fig={id}: its shape is a claim about its own machine \
             (movable: {})",
            movable.join("|")
        ));
    }
    let scale = |figure: &&Figure| Scale {
        duration_s: request.hours.unwrap_or(figure.hours) * 3600.0,
        system: (request.system.clone().filter(|_| figure.any_system))
            .unwrap_or_else(figure.system),
        threads: request.threads,
    };
    let scales: Vec<Scale> = selected.iter().map(scale).collect();
    let grids: Vec<Vec<Scenario>> = (selected.iter().zip(&scales))
        .map(|(figure, scale)| (figure.scenarios)(scale))
        .collect();
    let mut outcomes = simulate(&grids.concat(), request.threads).into_iter();
    let mut report = Report::default();
    for ((figure, scale), grid) in selected.iter().zip(&scales).zip(&grids) {
        let cells: Vec<ScenarioOutcome> = outcomes.by_ref().take(grid.len()).collect();
        let tables = (figure.reduce)(scale, &cells);

        let mut text = format!("== {} ==\n", figure.title);
        if figure.hours > 0.0 {
            let (system, hours) = (&scale.system.name, scale.duration_s / 3600.0);
            writeln!(text, "scale: {system}, {hours:.2} h").expect("write to String");
        }
        for table in &tables {
            table.write_jsonl(figure.id, &mut report.jsonl);
            if !table.detail {
                text.push_str(&table.render());
                text.push('\n');
            }
        }
        writeln!(text, "paper: {}", figure.paper).expect("write to String");
        for shape in figure.shapes {
            let verdict = (shape.check)(&tables);
            match &verdict {
                Ok(()) => writeln!(text, "PASS {} [{}]", shape.name, shape.bullet),
                Err(why) => writeln!(text, "FAIL {} [{}]: {why}", shape.name, shape.bullet),
            }
            .expect("write to String");
            report.failed.extend(verdict.is_err().then_some(shape.name));
        }
        print(&text);
    }
    Ok(report)
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
    fn a_table_prints_aligned_and_exports_one_object_per_row() {
        let mut t = Table::new("-- \"quoted\" --", "policy f:1 jobs draw(W):2");
        t.push(row!["FOP", 1.25, 7usize, 72.456]);
        t.push(vec![
            "PERQ".into(),
            2.0.into(),
            120usize.into(),
            Cell::Blank,
        ]);
        let printed = "-- \"quoted\" --\npolicy    f  jobs  draw(W)\nFOP     1.2     7    72.46\nPERQ    2.0   120        -\n";
        assert_eq!(t.render(), printed);
        assert_eq!((t.num(1, "jobs"), t.text(1, "policy")), (120.0, "PERQ"));
        assert!(t.num(1, "draw(W)").is_nan());
        let mut jsonl = String::new();
        t.write_jsonl("6", &mut jsonl);
        let second = "{\"fig\":\"6\",\"table\":\"-- \\\"quoted\\\" --\",\"policy\":\"PERQ\",\"f\":2.0,\"jobs\":120.0,\"draw(W)\":null}";
        assert_eq!(jsonl.lines().nth(1), Some(second));
    }
}
