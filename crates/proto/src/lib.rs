//! PERQ prototype runtime: a miniature power-managed cluster over real
//! TCP sockets.
//!
//! The paper deploys PERQ on "Tardis", a 16-node cluster where "all nodes
//! communicate with the scheduler over a TCP socket about power-cap, IPS,
//! and job start and finish information" (§3). This crate reproduces that
//! prototype in-process: every node is a thread running a synthetic
//! workload against a simulated RAPL device (`perq-rapl`), connected to
//! the controller through a real localhost TCP connection with
//! length-prefixed JSON frames. The controller schedules jobs FCFS,
//! gathers per-interval IPS reports, invokes any `perq-sim`
//! [`perq_sim::PowerPolicy`] (FOP, SJS, SRN, or PERQ itself), and pushes
//! new power caps.
//!
//! Differences from the pure simulator (`perq-sim`) that make this the
//! "real-system" leg of the evaluation:
//!
//! - per-node granularity: a job's nodes run as independent threads with
//!   their own RAPL devices and noise; the job-level IPS is the *slowest
//!   rank's* rate times the node count, as in the paper;
//! - real transport: reports and commands cross an actual TCP stack with
//!   framing, so the §3 overhead analysis (communication stress test) is
//!   measured, not modelled;
//! - wall-clock decision loop: each control interval is a real-time tick
//!   (compressed from 10 s to milliseconds for testability — the control
//!   dynamics are invariant to the tick length because the workload
//!   advances one logical interval per tick).
//!
//! The [`stress`] module reproduces the 100,000-client report-collection
//! measurement.

mod cluster;
pub mod codec;
mod error;
mod messages;
pub mod stress;
mod transport;
mod worker;

pub use cluster::{ProtoCluster, ProtoConfig};
pub use codec::{FrameDecoder, FrameEncoder, MAX_FRAME};
pub use error::ProtoError;
pub use messages::{Command, Report, Wire};
pub use transport::{
    is_transient, read_frame, read_frame_retry, read_frame_retry_with, write_frame,
    write_frame_retry, write_frame_retry_with, FaultyTransport, FrameError, RetryPolicy,
};
pub use worker::NodeWorker;
