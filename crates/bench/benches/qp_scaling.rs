//! Decision-cost scaling of the MPC QP: dense O(jobs²) vs structured
//! O(jobs) representations, swept over job count × horizon, plus the
//! precision/layout profiles (`f64_aos`, `f64_soa`, `mixed_soa`) on the
//! structured path.
//!
//! Two modes:
//!
//! - Default (criterion): `cargo bench --bench qp_scaling`.
//! - Snapshot: `cargo bench --bench qp_scaling -- --snapshot` hand-times
//!   one assembly+solve per configuration and writes
//!   `BENCH_qp_scaling.json` at the repo root (the committed artifact).
//!   Profile rows carry p50/p99 decide latency, the objective's relative
//!   error against the `f64_aos` oracle, and mixed-mode fallback counts.
//!
//! The dense path is skipped above `nv = jobs·horizon > 4096` — its
//! Hessian alone would be multiple GB there, which is precisely the point
//! of the structured representation.

use criterion::{criterion_group, BenchmarkId, Criterion};
use perq_bench::timing::{percentile, sample_ms, time_ms};
use perq_core::mpc_assembly::{
    assemble_dense_qp, assemble_structured_qp, AssemblyParams, MpcInput, MpcJobState,
};
use perq_qp::{
    solve_profiled, ProfiledQpState, ProjGradSettings, ProjGradSolver, SolverProfile, Workspace,
};

const JOB_COUNTS: [usize; 5] = [16, 64, 256, 1024, 4096];
const HORIZONS: [usize; 2] = [4, 8];
/// Dense-path cutoff on the variable count.
const DENSE_MAX_NV: usize = 4096;

/// Synthetic but model-shaped Markov parameters (decaying response).
fn markov(m: usize) -> Vec<f64> {
    (0..m).map(|j| 0.25 * 0.5f64.powi(j as i32)).collect()
}

fn params(m: usize, markov: &[f64]) -> AssemblyParams<'_> {
    AssemblyParams {
        horizon: m,
        wt_job: 1.0,
        wt_sys: 1.0,
        w_dp: 1.0,
        terminal_weight: 2.0,
        markov,
        feedthrough: 0.55,
        input_offset: -0.02,
    }
}

/// Deterministic pseudo-random job population (LCG — identical across
/// runs and harnesses).
fn jobs(n: usize, m: usize) -> Vec<MpcJobState> {
    let mut state = 0x5eed_0001_u64.wrapping_add(n as u64);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| MpcJobState {
            size: 1 + (i % 16),
            target: 0.6 + 0.5 * next(),
            current_cap_frac: 0.35 + 0.55 * next(),
            gain: 0.2 + 1.5 * next(),
            free_response: (0..m).map(|_| 0.4 + 0.5 * next()).collect(),
            curve_value: 0.3 + 0.6 * next(),
            curve_slope: 0.5 + next(),
            bias: 0.05 * (next() - 0.5),
            charged: next() > 0.2,
        })
        .collect()
}

fn make_input<'a>(jobs: &'a [MpcJobState]) -> MpcInput<'a> {
    let total: f64 = jobs.iter().map(|j| j.size as f64).sum();
    MpcInput {
        jobs,
        system_target: 1.1,
        budget_nodes: 0.6 * total,
        cap_min_frac: 0.31,
        wp_nodes: (0.8 * total).max(1.0),
    }
}

fn solver() -> ProjGradSolver {
    // The controller's production settings.
    ProjGradSolver::new(ProjGradSettings {
        max_iters: 400,
        tol: 1e-6,
        power_iters: 20,
    })
}

fn bench_decide(c: &mut Criterion) {
    let mut group = c.benchmark_group("qp_scaling/decide");
    group.sample_size(10);
    for &m in &HORIZONS {
        let h = markov(m);
        let p = params(m, &h);
        for &nj in &JOB_COUNTS {
            let js = jobs(nj, m);
            let input = make_input(&js);
            let sv = solver();

            let mut ws = Workspace::default();
            group.bench_with_input(
                BenchmarkId::new(format!("structured/h{m}"), nj),
                &nj,
                |b, _| {
                    b.iter(|| {
                        let (qp, warm, _) = assemble_structured_qp(&p, &input).unwrap();
                        sv.solve_with(&qp, Some(&warm), &mut ws, None).unwrap()
                    })
                },
            );

            if nj * m <= DENSE_MAX_NV {
                group.bench_with_input(BenchmarkId::new(format!("dense/h{m}"), nj), &nj, |b, _| {
                    b.iter(|| {
                        let (qp, warm, _) = assemble_dense_qp(&p, &input).unwrap();
                        sv.solve(&qp, Some(&warm)).unwrap()
                    })
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_decide);

/// The profiles measured in the snapshot, reference first.
const PROFILES: [SolverProfile; 3] = [
    SolverProfile {
        precision: perq_qp::Precision::F64,
        layout: perq_qp::Layout::Aos,
    },
    SolverProfile {
        precision: perq_qp::Precision::F64,
        layout: perq_qp::Layout::Soa,
    },
    SolverProfile {
        precision: perq_qp::Precision::Mixed,
        layout: perq_qp::Layout::Soa,
    },
];

/// One measured profile row of the snapshot.
struct ProfileRow {
    label: &'static str,
    p50_ms: f64,
    p99_ms: f64,
    objective: f64,
    rel_err_vs_f64: f64,
    iterations: usize,
    converged: bool,
    fallbacks: u64,
    reps: usize,
}

impl ProfileRow {
    fn to_json(&self) -> String {
        format!(
            "\"{}\": {{\"p50_ms\": {:.6}, \"p99_ms\": {:.6}, \"objective\": {:.9}, \
             \"objective_rel_err_vs_f64\": {:.3e}, \"iterations\": {}, \"converged\": {}, \
             \"fallbacks\": {}, \"reps\": {}}}",
            self.label,
            self.p50_ms,
            self.p99_ms,
            self.objective,
            self.rel_err_vs_f64,
            self.iterations,
            self.converged,
            self.fallbacks,
            self.reps
        )
    }
}

fn snapshot() {
    let mut rows = Vec::new();
    for &m in &HORIZONS {
        let h = markov(m);
        let p = params(m, &h);
        for &nj in &JOB_COUNTS {
            let js = jobs(nj, m);
            let input = make_input(&js);
            let sv = solver();
            let nv = nj * m;

            let mut ws = Workspace::default();
            let reps = if nv > 4096 { 3 } else { 5 };
            let structured_ms = time_ms(reps, || {
                let (qp, warm, _) = assemble_structured_qp(&p, &input).unwrap();
                sv.solve_with(&qp, Some(&warm), &mut ws, None).unwrap();
            });

            let dense_ms = (nv <= DENSE_MAX_NV).then(|| {
                time_ms(if nv >= 1024 { 3 } else { 5 }, || {
                    let (qp, warm, _) = assemble_dense_qp(&p, &input).unwrap();
                    sv.solve(&qp, Some(&warm)).unwrap();
                })
            });

            // Profile ladder on the structured operator: each profile
            // re-runs the same assemble+solve loop; cold state per
            // profile so no profile inherits another's spectral cache.
            let profile_reps = reps.max(7);
            let mut oracle_objective = f64::NAN;
            let mut profile_rows: Vec<ProfileRow> = Vec::new();
            for profile in PROFILES {
                let mut state = ProfiledQpState::default();
                let mut last = None;
                let mut fallbacks = 0u64;
                let samples = sample_ms(profile_reps, || {
                    let (qp, warm, _) = assemble_structured_qp(&p, &input).unwrap();
                    let got = solve_profiled(&sv, &qp, Some(&warm), profile, &mut state).unwrap();
                    fallbacks += u64::from(got.fell_back);
                    last = Some(got.solution);
                });
                let sol = last.expect("at least one rep ran");
                if profile.label() == "f64_aos" {
                    oracle_objective = sol.objective;
                }
                profile_rows.push(ProfileRow {
                    label: profile.label(),
                    p50_ms: percentile(&samples, 50.0),
                    p99_ms: percentile(&samples, 99.0),
                    objective: sol.objective,
                    rel_err_vs_f64: (sol.objective - oracle_objective).abs()
                        / (1.0 + oracle_objective.abs()),
                    iterations: sol.iterations,
                    converged: sol.converged,
                    fallbacks,
                    reps: profile_reps,
                });
            }

            let speedup = dense_ms.map(|d| d / structured_ms);
            let mixed = profile_rows
                .iter()
                .find(|r| r.label == "mixed_soa")
                .expect("mixed profile measured");
            // In-run regression gates (machine-relative, so they hold on
            // any CI runner): the structured f64 path must still beat the
            // dense representation where both are measured, every profile
            // must converge with oracle-relative objective error inside
            // the mixed-mode accuracy contract, and the mixed profile
            // must keep a clear speedup over the f64 reference at the
            // large sizes the profile exists for.
            for r in &profile_rows {
                assert!(
                    r.converged,
                    "profile {} did not converge at nv={nv}",
                    r.label
                );
                assert!(
                    r.rel_err_vs_f64 <= 1e-3,
                    "profile {} objective error {:.3e} vs f64 oracle at nv={nv}",
                    r.label,
                    r.rel_err_vs_f64
                );
            }
            if let Some(d) = dense_ms {
                if nv >= 1024 {
                    assert!(
                        structured_ms < d,
                        "structured f64 path regressed past dense at nv={nv}: {structured_ms:.3} ms vs {d:.3} ms"
                    );
                }
            }
            if nv >= 4096 && m == 4 {
                assert!(
                    mixed.p50_ms * 2.0 <= structured_ms,
                    "mixed_soa p50 {:.3} ms lost its speedup vs structured f64 {structured_ms:.3} ms at nv={nv}",
                    mixed.p50_ms
                );
            }
            println!(
                "jobs={nj:5} horizon={m} nv={nv:6}: structured {structured_ms:9.3} ms, dense {}, speedup {}, mixed_soa p50 {:9.3} ms ({:.1}x, rel err {:.1e})",
                dense_ms.map_or("skipped".into(), |d| format!("{d:9.3} ms")),
                speedup.map_or("-".into(), |s| format!("{s:.1}x")),
                mixed.p50_ms,
                structured_ms / mixed.p50_ms,
                mixed.rel_err_vs_f64,
            );
            let profiles_json: Vec<String> = profile_rows.iter().map(ProfileRow::to_json).collect();
            rows.push(format!(
                "{{\"jobs\": {nj}, \"horizon\": {m}, \"nv\": {nv}, \
                 \"structured_ms\": {structured_ms:.6}, \"dense_ms\": {}, \
                 \"speedup_dense_over_structured\": {}, \"profiles\": {{\n      {}\n    }}}}",
                dense_ms.map_or("null".into(), |d| format!("{d:.6}")),
                speedup.map_or("null".into(), |s| format!("{s:.3}")),
                profiles_json.join(",\n      ")
            ));
        }
    }
    // Hand-formatted JSON: the snapshot must also run in minimal
    // environments where serde_json is stubbed out (same idiom as the
    // hier_scaling and serve_scaling snapshots).
    let doc = format!(
        "{{\n  \"bench\": \"qp_scaling\",\n  \"description\": \"MPC decision (assemble + solve) \
         wall time: dense O(jobs^2) vs structured O(jobs) QP representation, plus \
         precision/layout profiles (f64/f32/mixed x AoS/SoA) on the structured path. Profile rows \
         carry p50/p99 decide latency, the objective's relative error against the f64_aos oracle, \
         and mixed-mode fallback counts.\",\n  \"solver\": {{\"max_iters\": 400, \"tol\": \
         1e-6}},\n  \"dense_max_nv\": {DENSE_MAX_NV},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_qp_scaling.json");
    std::fs::write(path, doc).unwrap();
    println!("wrote {path}");
}

fn main() {
    if std::env::args().any(|a| a == "--snapshot") {
        snapshot();
        return;
    }
    benches();
    Criterion::default().configure_from_args().final_summary();
}
