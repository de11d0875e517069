//! Records the serving path under pressure as JSON (written to
//! `BENCH_serving.json` by `scripts/bench_record.sh`). The file holds one
//! `open_loop` section: per EC1–EC5 family, scheduled arrivals at
//! 0.5/0.9/1.2× the measured capacity against a bounded backlog, with
//! per-request deadlines and seeded fault injection —
//! shed/expired/faulted/retry counts and p50/p95/p99 sojourn per offered
//! load. `cnb_bench::serving::run_open_loop` documents the method:
//! measured service times, arrivals replayed in virtual time. Warm serving
//! latency and throughput, end to end, are the repo benchmark's `warm_mix`
//! workload (`BENCHMARK.json`, `benchmark/README.md`).

// Measuring wall time is this binary's job (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use cnb_bench::serving::{run_open_loop_suite, OpenLoopConfig};
use cnb_workloads::DataScale;

fn main() {
    let scale = DataScale::new(cnb_bench::rows().min(2000), 7);
    let requests = std::env::var("CNB_SERVING_REQUESTS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(200);
    let open_cfg = OpenLoopConfig {
        requests,
        ..OpenLoopConfig::default()
    };
    let open_threads = 4usize;
    let open_points = run_open_loop_suite(scale, open_threads, &open_cfg);

    let recorded_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("{{");
    println!("  \"bench\": \"serving\",");
    println!("  \"recorded_unix\": {recorded_unix},");
    println!("  \"host_cpus\": {host_cpus},");
    println!("  \"scale_rows\": {},", scale.rows);
    println!("  \"requests_per_family\": {requests},");
    println!("  \"open_loop\": {{");
    println!(
        "    \"deadline_ms\": {}, \"max_retries\": {}, \"fail_rate\": {}, \
         \"fault_seed\": {}, \"backlog_cap\": {}, \"threads\": {open_threads},",
        open_cfg.deadline.as_millis(),
        open_cfg.max_retries,
        open_cfg.fail_rate,
        open_cfg.fault_seed,
        open_cfg.backlog_cap
    );
    println!("    \"points\": [");
    for (i, p) in open_points.iter().enumerate() {
        let comma = if i + 1 < open_points.len() { "," } else { "" };
        assert_eq!(
            p.served + p.shed + p.expired + p.faulted,
            p.requests,
            "{}: open-loop buckets must reconcile",
            p.label
        );
        println!(
            "      {{\"label\": \"{}\", \"utilization\": {:.2}, \"offered_qps\": {:.1}, \
             \"requests\": {}, \"served\": {}, \"shed\": {}, \"expired\": {}, \
             \"faulted\": {}, \"retries\": {}, \
             \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}}}{comma}",
            p.label,
            p.utilization,
            p.offered_qps,
            p.requests,
            p.served,
            p.shed,
            p.expired,
            p.faulted,
            p.retries,
            p.p50_ms,
            p.p95_ms,
            p.p99_ms
        );
    }
    println!("    ]");
    println!("  }}");
    println!("}}");
}
