//! The untraced measured window: end-to-end latency and throughput.
//!
//! One closed-loop client makes rounds over the whole request stream. Each
//! round first serves every request one at a time through
//! [`PlanServer::serve`], timing each call (the latency samples), then sends
//! the same requests through [`PlanServer::serve_batch`] on the executor
//! threads, one batch per lane, each batch sent after the previous one
//! returned. A round's throughput is its request count over the time spent
//! inside its batches; the window reports the median round, so a burst of
//! load from outside the process moves one round, not the result. Responses
//! go to the answer check between timed calls.
//!
//! The window reads the process's memory high-water mark when its first
//! round ends: every request has then been served once on its own and once
//! in a batch.
//!
//! [`PlanServer::serve`]: cnb_engine::PlanServer::serve
//! [`PlanServer::serve_batch`]: cnb_engine::PlanServer::serve_batch

use std::time::{Duration, Instant};

use cnb_engine::{ExecResult, PlanServer};

use crate::check::Checker;
use crate::mix::{Lane, Mix};
use crate::stats;

/// What one window measured.
pub struct Window {
    /// Wall time of each `serve` call, ms.
    pub latencies_ms: Vec<f64>,
    /// The same samples split by lane.
    pub lane_latencies_ms: Vec<Vec<f64>>,
    /// Each round's `serve_batch` throughput, requests per second.
    pub round_rps: Vec<f64>,
    /// The process's `VmHWM` when the first round ended, MiB. Later rounds
    /// repeat the same requests. What they add is freed memory that glibc's
    /// per-thread malloc arenas keep resident, which depends on which
    /// executor thread ran a large request and on how many rounds fit into
    /// the window: on `skew_tri`, end-of-window readings fell into modes
    /// 30–50 MB apart from run to run.
    pub peak_rss_mb: f64,
}

/// Runs rounds until `seconds` have passed (at least one round).
pub fn run(
    mix: &mut Mix,
    seconds: f64,
    threads: usize,
    checker: &mut Checker,
) -> Result<Window, String> {
    let budget = Duration::from_secs_f64(seconds);
    let opened = Instant::now();
    let mut window = Window {
        latencies_ms: Vec::new(),
        lane_latencies_ms: vec![Vec::new(); mix.lanes.len()],
        round_rps: Vec::new(),
        peak_rss_mb: 0.0,
    };
    while window.round_rps.is_empty() || opened.elapsed() < budget {
        for (id, request) in mix.requests.iter().enumerate() {
            let (server, db) = (&mut mix.servers[request.lane], &mix.lanes[request.lane].db);
            let started = Instant::now();
            let response = server.serve(db, &request.query);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            window.latencies_ms.push(ms);
            window.lane_latencies_ms[request.lane].push(ms);
            checker.observe(id, response.as_ref().map(|(_, r)| r.rows.as_slice()));
        }

        let batch_s: f64 = mix
            .lanes
            .iter()
            .zip(&mut mix.servers)
            .map(|(lane, server)| serve_lane(server, lane, threads, checker, |_| {}))
            .sum();
        window
            .round_rps
            .push(mix.requests.len() as f64 / batch_s.max(1e-12));
        if window.round_rps.len() == 1 {
            window.peak_rss_mb = stats::peak_rss_mb()?;
        }
    }
    Ok(window)
}

/// Sends `lane`'s requests through one `serve_batch` call on `server` at
/// `threads` executor threads, then reports each response to the answer
/// check and passes each successful one to `each`. Returns the seconds
/// spent inside the call.
pub fn serve_lane(
    server: &mut PlanServer,
    lane: &Lane,
    threads: usize,
    checker: &mut Checker,
    mut each: impl FnMut(&ExecResult),
) -> f64 {
    let started = Instant::now();
    let responses = server.serve_batch(&lane.db, &lane.batch, threads);
    let seconds = started.elapsed().as_secs_f64();
    for (&id, response) in lane.ids.iter().zip(&responses) {
        if let Ok((_, r)) = response {
            each(r);
        }
        checker.observe(id, response.as_ref().map(|(_, r)| r.rows.as_slice()));
    }
    seconds
}
