//! Experiment harness of the PERQ reproduction.
//!
//! [`figures`] is the paper's evaluation as one table — every figure and
//! table of §3 as a row of scenarios, a reducer and the DESIGN.md §2
//! shapes it must show ([`shapes`]) — driven by `perq figures`. The rest
//! is what the criterion benches in `benches/` share: wall-clock sampling
//! ([`timing`]) and the `BENCH_*.json` header ([`snapshot_header`]).

pub mod figures;
pub mod shapes;

/// Wall-clock measurement helpers shared by the scaling benches'
/// snapshot modes (`qp_scaling`, `event_sim`, `serve_scaling`), so
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
