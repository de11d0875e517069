//! The open-loop serving harness behind `BENCH_serving.json`.
//!
//! Drives [`cnb_engine::PlanServer`] with each workload family's
//! parameterized serving mix ([`Workload::serving_query`]) under pressure:
//! scheduled arrivals against a bounded backlog, per-request deadlines and
//! seeded fault injection (see [`run_open_loop`]). Warm serving latency and
//! throughput are measured end to end by the repo benchmark
//! (`BENCHMARK.json`, `benchmark/README.md`), not here.

use std::time::Duration;

use cnb_engine::{FaultPlan, PlanServer, ServeConfig, ServeError, WallClock};
use cnb_workloads::{suite, DataScale, Workload};

/// Nearest-rank percentile of an unsorted sample set (p in [0, 100]).
fn percentile_ms(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Configuration for one open-loop sweep.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Requests per offered-load point.
    pub requests: usize,
    /// Offered load as fractions of the measured service capacity
    /// (`threads / mean service time`); 1.0 is saturation, above it the
    /// backlog grows without bound and shedding/expiry must kick in.
    pub utilizations: Vec<f64>,
    /// Per-request deadline: a request still queued this long after its
    /// scheduled arrival is dropped at dispatch (counted `expired`).
    pub deadline: Duration,
    /// Fault-retry budget per request (mirrors [`ServeConfig::max_retries`]).
    pub max_retries: usize,
    /// Per-attempt injected failure probability.
    pub fail_rate: f64,
    /// Fault-plan seed (recorded so a sweep is reproducible end to end).
    pub fault_seed: u64,
    /// Arrivals finding this many requests already waiting are shed on the
    /// spot (counted `shed`) — the admission queue bound.
    pub backlog_cap: usize,
}

impl Default for OpenLoopConfig {
    fn default() -> OpenLoopConfig {
        OpenLoopConfig {
            requests: 200,
            utilizations: vec![0.5, 0.9, 1.2],
            deadline: Duration::from_millis(50),
            max_retries: 2,
            fail_rate: 0.05,
            fault_seed: 0xC4A0_5EED,
            backlog_cap: 64,
        }
    }
}

/// One open-loop measurement: a family at one offered load.
#[derive(Clone, Debug)]
pub struct OpenLoopPoint {
    /// Family name ("EC1" … "EC5").
    pub label: String,
    /// Executor worker threads (= simulated servers).
    pub threads: usize,
    /// Offered arrival rate, requests/second.
    pub offered_qps: f64,
    /// Offered load as a fraction of measured capacity.
    pub utilization: f64,
    /// Scheduled arrivals at this point.
    pub requests: usize,
    /// Requests that completed with rows.
    pub served: usize,
    /// Arrivals shed at the backlog cap.
    pub shed: usize,
    /// Requests dropped at dispatch because their deadline had passed.
    pub expired: usize,
    /// Requests lost to injected faults after exhausting retries.
    pub faulted: usize,
    /// Total fault retries absorbed (survivors included).
    pub retries: usize,
    /// Median sojourn (queue wait + service) of served requests, ms.
    pub p50_ms: f64,
    /// 95th-percentile sojourn, ms.
    pub p95_ms: f64,
    /// 99th-percentile sojourn, ms.
    pub p99_ms: f64,
}

/// A request's fate in the measured (fault-injected) run, carried into the
/// arrival simulation.
enum MeasuredFate {
    /// Executed: its measured service time (seconds) and retries consumed.
    Served { service_secs: f64, retries: usize },
    /// Lost to fault injection after `retries` retries; failed attempts
    /// abort before executing, so it occupies no service time.
    Faulted { retries: usize },
}

/// Drives one family's serving mix through an **open loop**: requests
/// arrive on a fixed schedule (offered QPS) whether or not the server has
/// kept up, wait in a bounded FIFO backlog, and are shed (backlog full),
/// expired (deadline passed before dispatch), served, or lost to injected
/// faults.
///
/// Two layers, honestly separated: **service times, fault casualties and
/// retry counts are measured** — the whole mix runs through
/// [`PlanServer::serve_batch_under`] with a seeded [`FaultPlan`] and a wall
/// clock, exactly the production path. **Queueing is then simulated** in
/// deterministic virtual time over those measured service times: arrival
/// `i` at `i / qps` seconds, `threads` servers, FIFO dispatch to the
/// earliest-free server. Sleeping through real inter-arrival gaps would
/// make the sweep minutes-long and flaky; the virtual-time replay is a pure
/// function of the measured samples, so two analyses of one measurement
/// agree exactly. Every arrival lands in exactly one bucket:
/// `served + shed + expired + faulted == requests`.
pub fn run_open_loop(
    w: &dyn Workload,
    scale: DataScale,
    threads: usize,
    cfg: &OpenLoopConfig,
) -> Vec<OpenLoopPoint> {
    assert!(threads > 0, "open loop needs at least one server");
    let db = w.generate_at(scale);
    let strategy = w.expectations().strategy;
    let mut server = PlanServer::new(w.optimizer(), crate::config(strategy));
    server
        .serve(&db, &w.serving_query(scale, 0))
        .unwrap_or_else(|e| panic!("{}: warmup request failed: {e}", w.name()));

    // Measured layer: the real pressure path, faults and retries included.
    let mix: Vec<_> = (0..cfg.requests)
        .map(|i| w.serving_query(scale, i as u64))
        .collect();
    let faults = FaultPlan::failures(cfg.fault_seed, cfg.fail_rate);
    let serve_cfg = ServeConfig::unbounded().with_max_retries(cfg.max_retries);
    let clock = WallClock::start();
    let outcomes = server.serve_batch_under(&db, &mix, threads, &serve_cfg, &clock, Some(&faults));

    let fates: Vec<MeasuredFate> = outcomes
        .iter()
        .map(|o| match &o.result {
            Ok((_, exec)) => MeasuredFate::Served {
                service_secs: exec.stats.elapsed.as_secs_f64(),
                retries: o.retries,
            },
            Err(ServeError::FaultInjected { .. }) | Err(ServeError::RetriesExhausted { .. }) => {
                MeasuredFate::Faulted { retries: o.retries }
            }
            Err(e) => panic!("{}: open-loop measurement failed: {e}", w.name()),
        })
        .collect();
    let (mut service_sum, mut executed) = (0.0f64, 0usize);
    for f in &fates {
        if let MeasuredFate::Served { service_secs, .. } = f {
            service_sum += service_secs;
            executed += 1;
        }
    }
    assert!(executed > 0, "{}: every request was faulted away", w.name());
    let capacity_qps = threads as f64 / (service_sum / executed as f64).max(1e-9);

    // Simulated layer: deterministic virtual-time arrival replay.
    cfg.utilizations
        .iter()
        .map(|&utilization| {
            let offered_qps = utilization * capacity_qps;
            let deadline_secs = cfg.deadline.as_secs_f64();
            let mut free = vec![0.0f64; threads];
            let mut dispatches: Vec<f64> = Vec::with_capacity(cfg.requests);
            let mut sojourn_ms: Vec<f64> = Vec::new();
            let (mut served, mut shed, mut expired, mut faulted, mut retries) = (0, 0, 0, 0, 0);
            for (i, fate) in fates.iter().enumerate() {
                let arrival = i as f64 / offered_qps;
                let fate_retries = match fate {
                    MeasuredFate::Served { retries: r, .. } => *r,
                    MeasuredFate::Faulted { retries: r } => {
                        // Fails fast before execution: no queue, no service.
                        faulted += 1;
                        retries += *r;
                        continue;
                    }
                };
                let backlog = dispatches.iter().filter(|&&d| d > arrival).count();
                if backlog >= cfg.backlog_cap {
                    shed += 1;
                    continue;
                }
                let s = (0..threads)
                    .min_by(|&a, &b| free[a].total_cmp(&free[b]))
                    .expect("threads > 0");
                let start = arrival.max(free[s]);
                dispatches.push(start);
                if start - arrival > deadline_secs {
                    expired += 1;
                    continue;
                }
                let service_secs = match fate {
                    MeasuredFate::Served { service_secs, .. } => *service_secs,
                    MeasuredFate::Faulted { .. } => unreachable!("handled above"),
                };
                free[s] = start + service_secs;
                retries += fate_retries;
                served += 1;
                sojourn_ms.push((start - arrival + service_secs) * 1e3);
            }
            let pct = |samples: &mut Vec<f64>, p: f64| {
                if samples.is_empty() {
                    0.0
                } else {
                    percentile_ms(samples, p)
                }
            };
            OpenLoopPoint {
                label: w.name().to_string(),
                threads,
                offered_qps,
                utilization,
                requests: cfg.requests,
                served,
                shed,
                expired,
                faulted,
                retries,
                p50_ms: pct(&mut sojourn_ms, 50.0),
                p95_ms: pct(&mut sojourn_ms, 95.0),
                p99_ms: pct(&mut sojourn_ms, 99.0),
            }
        })
        .collect()
}

/// Runs the open-loop sweep for every EC1–EC5 family at one thread count.
pub fn run_open_loop_suite(
    scale: DataScale,
    threads: usize,
    cfg: &OpenLoopConfig,
) -> Vec<OpenLoopPoint> {
    suite()
        .iter()
        .flat_map(|w| run_open_loop(w.as_ref(), scale, threads, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_ms(&mut xs, 50.0), 50.0);
        assert_eq!(percentile_ms(&mut xs, 95.0), 95.0);
        assert_eq!(percentile_ms(&mut xs, 99.0), 99.0);
        assert_eq!(percentile_ms(&mut xs, 100.0), 100.0);
        let mut one = vec![7.0];
        assert_eq!(percentile_ms(&mut one, 50.0), 7.0);
        assert_eq!(percentile_ms(&mut one, 99.0), 7.0);
    }
}
