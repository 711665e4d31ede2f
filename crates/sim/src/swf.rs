//! Replaying ingested SWF traces through the simulator.
//!
//! [`TraceSource`] is the bridge between `perq-trace` and the
//! simulator's [`JobSpec`] workload: it maps SWF records onto jobs,
//! attaches seeded `perq-apps` power profiles via
//! [`perq_trace::PowerSynth`], and sits alongside the synthetic
//! [`crate::TraceGenerator`] as the second way to feed a [`crate::Cluster`].
//!
//! Field mapping (DESIGN.md §9):
//!
//! - **size** ← allocated processors, falling back to requested
//!   processors (one SWF processor = one simulated node; archive logs
//!   should be node-rescaled first, see
//!   [`perq_trace::SwfTrace::rescale_nodes`]);
//! - **runtime at TDP** ← run time (the recorded runtime is taken as the
//!   uncapped-hardware runtime; power capping then stretches it, exactly
//!   as for synthetic jobs);
//! - **estimate** ← requested time when recorded, otherwise runtime ×
//!   `estimate_factor`; never below the runtime, preserving the EASY
//!   backfill overestimation invariant;
//! - **application profile** ← stateless seeded hash of the job's queue
//!   position ([`perq_trace::PowerSynth`]).
//!
//! Records without a positive runtime and processor count (cancelled
//! jobs, `-1` markers) are skipped and counted in [`SwfImportSummary`].

use crate::job::JobSpec;
use perq_apps::ecp_suite;
use perq_telemetry::Recorder;
use perq_trace::{PowerSynth, SwfTrace};

/// What an SWF → [`JobSpec`] import did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwfImportSummary {
    /// Jobs produced.
    pub imported: usize,
    /// Records skipped for lacking a positive runtime or processor
    /// count (cancelled / failed-before-start entries).
    pub skipped_invalid: usize,
}

impl SwfImportSummary {
    /// Records the import into `recorder` (`perq_trace_*` metrics).
    pub fn record_into(&self, recorder: &Recorder) {
        if recorder.enabled() {
            recorder.counter_add("perq_trace_jobs_imported_total", self.imported as u64);
            recorder.counter_add(
                "perq_trace_records_skipped_total",
                self.skipped_invalid as u64,
            );
        }
    }
}

/// A workload source backed by an ingested SWF trace.
#[derive(Debug, Clone)]
pub struct TraceSource {
    trace: SwfTrace,
    synth_seed: u64,
    estimate_factor: f64,
    honor_arrivals: bool,
}

impl TraceSource {
    /// A source over `trace`, with application profiles drawn under
    /// `synth_seed` and the default 1.3× estimate inflation for records
    /// that carry no requested time.
    pub fn new(trace: SwfTrace, synth_seed: u64) -> Self {
        TraceSource {
            trace,
            synth_seed,
            estimate_factor: 1.3,
            honor_arrivals: false,
        }
    }

    /// Overrides the estimate inflation factor applied when a record
    /// has no requested time.
    pub fn with_estimate_factor(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "estimate factor must be at least 1");
        self.estimate_factor = factor;
        self
    }

    /// When enabled, imported jobs carry the log's submit times rebased
    /// so the first imported job arrives at `t = 0`. Off by default:
    /// the simulator's saturated queue (every job ready at `t = 0`)
    /// reproduces the paper's setup, while arrivals expose the dead
    /// time `Cluster::run` skips.
    pub fn with_arrivals(mut self, honor: bool) -> Self {
        self.honor_arrivals = honor;
        self
    }

    /// The underlying trace.
    pub fn trace(&self) -> &SwfTrace {
        &self.trace
    }

    /// Converts the trace into simulator jobs in submission order
    /// (stable on ties, so the conversion is a pure function of the
    /// trace and seed). Job ids are the queue positions `0..n`, which is
    /// what [`PowerSynth`] hashes — a replay's profile assignment does
    /// not depend on the log's own job numbering.
    pub fn jobs(&self) -> (Vec<JobSpec>, SwfImportSummary) {
        let synth = PowerSynth::new(self.synth_seed, ecp_suite().len());
        let mut order: Vec<usize> = (0..self.trace.records.len()).collect();
        order.sort_by(|&a, &b| {
            let (ra, rb) = (&self.trace.records[a], &self.trace.records[b]);
            ra.submit_s
                .partial_cmp(&rb.submit_s)
                .unwrap()
                .then(a.cmp(&b))
        });
        let mut jobs = Vec::new();
        let mut summary = SwfImportSummary::default();
        let mut arrival_base: Option<f64> = None;
        for index in order {
            let record = &self.trace.records[index];
            let (Some(size), true) = (record.procs(), record.run_s > 0.0) else {
                summary.skipped_invalid += 1;
                continue;
            };
            let id = jobs.len() as u64;
            let runtime_tdp_s = record.run_s;
            let runtime_estimate_s = record
                .estimate_s()
                .unwrap_or(runtime_tdp_s * self.estimate_factor)
                .max(runtime_tdp_s);
            let submit_s = if self.honor_arrivals {
                let base = *arrival_base.get_or_insert(record.submit_s);
                (record.submit_s - base).max(0.0)
            } else {
                0.0
            };
            jobs.push(JobSpec {
                id,
                app_index: synth.app_index(id),
                size,
                runtime_tdp_s,
                runtime_estimate_s,
                submit_s,
            });
        }
        summary.imported = jobs.len();
        (jobs, summary)
    }
}

/// Exports simulator jobs as an SWF trace — the bridge back out, used
/// to turn a synthetic [`crate::TraceGenerator`] workload into an SWF
/// file (and by the ingest bench to build inputs of any size). Submit
/// times carry each job's `submit_s` (zero for saturated workloads);
/// wait times are zero; the application index is recorded in the SWF
/// executable field.
pub fn swf_from_jobs(jobs: &[JobSpec], computer: &str, max_nodes: usize) -> SwfTrace {
    let mut trace = SwfTrace::default();
    trace.header.lines = vec![
        " Version: 2.2".to_string(),
        format!(" Computer: {computer}"),
        " Installation: perq-sim synthetic export".to_string(),
        format!(" MaxJobs: {}", jobs.len()),
        format!(" MaxRecords: {}", jobs.len()),
        format!(" MaxNodes: {max_nodes}"),
        format!(" MaxProcs: {max_nodes}"),
    ];
    trace.records = jobs
        .iter()
        .map(|job| {
            let mut r = perq_trace::SwfRecord::unavailable();
            r.job_id = job.id as i64 + 1;
            r.submit_s = job.submit_s;
            r.wait_s = 0.0;
            r.run_s = job.runtime_tdp_s;
            r.alloc_procs = job.size as i64;
            r.req_procs = job.size as i64;
            r.req_time_s = job.runtime_estimate_s;
            r.status = 1;
            r.app = job.app_index as i64;
            r
        })
        .collect();
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SystemModel, TraceGenerator};
    use perq_trace::{parse_swf, write_swf, ParseMode, SwfRecord};

    fn record(submit: f64, run: f64, procs: i64, req_time: f64) -> SwfRecord {
        let mut r = SwfRecord::unavailable();
        r.submit_s = submit;
        r.run_s = run;
        r.alloc_procs = procs;
        r.req_time_s = req_time;
        r
    }

    #[test]
    fn jobs_map_fields_and_skip_invalid_records() {
        let trace = SwfTrace {
            records: vec![
                record(10.0, 600.0, 4, 900.0),
                record(0.0, -1.0, 4, 900.0),  // cancelled: skipped
                record(5.0, 300.0, -1, -1.0), // no procs: skipped
                record(0.0, 120.0, 2, -1.0),  // no estimate: inflated
            ],
            ..SwfTrace::default()
        };
        let (jobs, summary) = TraceSource::new(trace, 7).jobs();
        assert_eq!(summary.imported, 2);
        assert_eq!(summary.skipped_invalid, 2);
        // Submission order: the 120 s job (submit 0) first.
        assert_eq!(jobs[0].size, 2);
        assert_eq!(jobs[0].runtime_tdp_s, 120.0);
        assert!((jobs[0].runtime_estimate_s - 156.0).abs() < 1e-9);
        assert_eq!(jobs[1].size, 4);
        assert_eq!(jobs[1].runtime_estimate_s, 900.0);
        assert!(jobs.iter().all(|j| j.app_index < ecp_suite().len()));
    }

    #[test]
    fn arrivals_are_rebased_to_first_imported_job() {
        let trace = SwfTrace {
            records: vec![
                record(1000.0, 600.0, 4, 900.0),
                record(500.0, -1.0, 2, -1.0), // cancelled: not a base candidate
                record(1300.0, 120.0, 2, 200.0),
            ],
            ..SwfTrace::default()
        };
        let (saturated, _) = TraceSource::new(trace.clone(), 7).jobs();
        assert!(saturated.iter().all(|j| j.submit_s == 0.0));
        let (jobs, summary) = TraceSource::new(trace, 7).with_arrivals(true).jobs();
        assert_eq!(summary.imported, 2);
        assert_eq!(jobs[0].submit_s, 0.0, "first imported job rebases to 0");
        assert_eq!(jobs[1].submit_s, 300.0);
    }

    #[test]
    fn estimates_never_undershoot_runtimes() {
        let trace = SwfTrace {
            records: vec![record(0.0, 600.0, 4, 60.0)], // user underestimated
            ..SwfTrace::default()
        };
        let (jobs, _) = TraceSource::new(trace, 7).jobs();
        assert_eq!(jobs[0].runtime_estimate_s, 600.0);
    }

    #[test]
    fn conversion_is_deterministic_and_seed_sensitive() {
        let fixture = include_str!("../../trace/fixtures/tardis_tiny.swf");
        let trace = parse_swf(fixture).unwrap();
        let (a, _) = TraceSource::new(trace.clone(), 42).jobs();
        let (b, _) = TraceSource::new(trace.clone(), 42).jobs();
        assert_eq!(a, b);
        let (c, _) = TraceSource::new(trace, 43).jobs();
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.app_index != y.app_index),
            "different synth seeds should shuffle profile assignments"
        );
    }

    #[test]
    fn ties_on_submit_time_keep_file_order() {
        let trace = SwfTrace {
            records: vec![
                record(0.0, 100.0, 1, -1.0),
                record(0.0, 200.0, 2, -1.0),
                record(0.0, 300.0, 3, -1.0),
            ],
            ..SwfTrace::default()
        };
        let (jobs, _) = TraceSource::new(trace, 1).jobs();
        let sizes: Vec<usize> = jobs.iter().map(|j| j.size).collect();
        assert_eq!(sizes, vec![1, 2, 3]);
    }

    #[test]
    fn synthetic_jobs_round_trip_through_swf() {
        let system = SystemModel::tardis();
        let jobs = TraceGenerator::new(system.clone(), 11).generate(25);
        let swf = swf_from_jobs(&jobs, &system.name, system.wp_nodes);
        let reparsed = parse_swf(&write_swf(&swf)).unwrap();
        let (replayed, summary) = TraceSource::new(reparsed, 0).jobs();
        assert_eq!(summary.imported, 25);
        assert_eq!(summary.skipped_invalid, 0);
        for (original, back) in jobs.iter().zip(&replayed) {
            assert_eq!(original.size, back.size);
            assert_eq!(original.runtime_tdp_s, back.runtime_tdp_s);
            assert_eq!(original.runtime_estimate_s, back.runtime_estimate_s);
        }
    }

    #[test]
    fn import_summary_records_counters() {
        let recorder = Recorder::manual();
        SwfImportSummary {
            imported: 12,
            skipped_invalid: 3,
        }
        .record_into(&recorder);
        assert_eq!(recorder.counter_value("perq_trace_jobs_imported_total"), 12);
        assert_eq!(
            recorder.counter_value("perq_trace_records_skipped_total"),
            3
        );
    }

    #[test]
    fn lenient_fixture_replay_is_deterministic() {
        let fixture = include_str!("../../trace/fixtures/sample_cluster.swf");
        let report = perq_trace::parse_swf_report(fixture, ParseMode::Lenient).unwrap();
        let (jobs, summary) = TraceSource::new(report.trace, 5).jobs();
        assert_eq!(summary.imported, 38);
        assert_eq!(summary.skipped_invalid, 2);
        assert_eq!(jobs.len(), 38);
    }
}
