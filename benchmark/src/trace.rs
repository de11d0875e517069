//! The traced run: spans around calls into each layer's public functions,
//! exact work counters, the plan-choice regret and the tracing overhead.
//!
//! Everything here is measured from outside the program. A *pass* builds a
//! fresh server per lane, plants the cold requests and then, for every
//! distinct request of the stream, calls each layer in turn inside a span
//! tagged with the request id:
//!
//! | span | call |
//! |---|---|
//! | `optimizer.optimize` | `Optimizer::optimize` on the lane's template (once per lane) |
//! | `serving.parameterize` | `parameterize` |
//! | `serving.fingerprint` | `Fingerprint::new` |
//! | `serving.bind` | `bind_params` on the best emitted template plan |
//! | `serving.plan` | `PlanServer::plan` |
//! | `eval.execute` | `execute` on the plan `PlanServer::plan` returned |
//! | `serving.serve` | `PlanServer::serve` |
//!
//! Each request is first served once untimed, so every timed call sees the
//! same warm state. The pass then sends the whole stream through
//! `serve_batch` at 1 and at 2
//! executor threads. Passes run at backchase thread knobs `T, T, 3 - T`
//! (with `T = min(nproc, 2)`), then at `T` until the window is used up;
//! every pass must report the same counters.
//!
//! Before the passes, a quarter of the budget goes to the untraced window
//! the `--trace 0` run measures. `trace.overhead_pct` compares the traced
//! `serving.serve` median with that window's latency median. No span sits
//! inside `serve`, so the figure is what the traced sequence does to the
//! served request: the calls before it warm the same data and plan.

use std::time::Instant;

use cnb_core::prelude::{bind_params, parameterize, Fingerprint, OptimizeResult, PlanInfo};
use cnb_engine::{execute, execute_wcoj, ExecResult, PlanServer};
use cnb_ir::prelude::{ExecStrategy, Query};

use crate::check::Checker;
use crate::mix::Mix;
use crate::stats::{median, Metric};
use crate::window::{self, serve_lane};

/// Share of `--seconds` the traced run spends in an untraced window, the
/// reference `trace.overhead_pct` compares the traced `serve` calls with.
const UNTRACED_SHARE: f64 = 0.25;

/// One timed call into a layer.
struct Span {
    /// The distinct request the call served (`None` for per-lane calls).
    request: Option<usize>,
    /// Layer-qualified call name.
    name: &'static str,
    /// Duration, µs.
    us: f64,
}

/// In-memory span log.
#[derive(Default)]
struct Spans(Vec<Span>);

impl Spans {
    fn time<T>(&mut self, request: Option<usize>, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.0.push(Span {
            request,
            name,
            us: started.elapsed().as_secs_f64() * 1e6,
        });
        out
    }

    /// Duration of the span recorded last, µs.
    fn last_us(&self) -> f64 {
        self.0.last().map_or(0.0, |s| s.us)
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.us)
            .collect()
    }

    /// Duration of `name` for each request, indexed by request id (the last
    /// such span when a request has several).
    fn by_request(&self, name: &str, requests: usize) -> Vec<f64> {
        let mut out = vec![f64::NAN; requests];
        for s in self.0.iter().filter(|s| s.name == name) {
            if let Some(r) = s.request {
                out[r] = s.us;
            }
        }
        out
    }
}

/// Exact work counts one pass produced. Two passes over the same inputs must
/// agree on every field, whatever the thread knobs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Counts {
    explored: usize,
    plans: usize,
    tuples_considered: usize,
    op_rows: usize,
    build_rows: usize,
    rows_out: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
    /// `op_rows` summed over the `serve_batch` responses at 1 and at 2
    /// executor threads.
    batch_op_rows: [usize; 2],
}

/// Rows a plan's operators produced, summed.
fn op_rows(r: &ExecResult) -> usize {
    r.stats.operators.iter().map(|o| o.output_rows).sum()
}

/// Rows a plan's operators built tables over: hash-join build sides and
/// generic-join index builds.
fn build_rows(r: &ExecResult) -> usize {
    r.stats
        .operators
        .iter()
        .filter(|o| o.op == "hash_join" || o.op == "wcoj_index")
        .map(|o| o.collection_rows)
        .sum()
}

/// Deterministic work of one execution: operator output rows plus build rows.
fn work(r: &ExecResult) -> usize {
    op_rows(r) + build_rows(r)
}

fn ran_wcoj(r: &ExecResult) -> bool {
    r.stats.operators.iter().any(|o| o.op.starts_with("wcoj"))
}

/// Per-lane optimizer figures of one pass.
struct LaneOpt {
    result: OptimizeResult,
    ms: f64,
}

/// What one pass measured besides its spans.
struct Pass {
    counts: Counts,
    /// Per lane: the direct `Optimizer::optimize` result and its time.
    optimized: Vec<LaneOpt>,
    /// Per request: the served execution's work, ms and whether it ran the
    /// generic join.
    served: Vec<(usize, f64, bool)>,
    /// Per request: serve − plan − execute, µs.
    overhead_us: Vec<f64>,
    /// `serve_batch` seconds at 1 and at 2 executor threads.
    batch_s: [f64; 2],
}

fn pass(mix: &Mix, knob: usize, spans: &mut Spans, checker: &mut Checker) -> Pass {
    let mut counts = Counts::default();
    let mut servers: Vec<PlanServer> = Vec::with_capacity(mix.lanes.len());
    for (lane_id, lane) in mix.lanes.iter().enumerate() {
        let mut server = lane.server(knob);
        if let Err(e) = server.serve(&lane.db, &lane.plant) {
            checker.error(format!("lane {lane_id}: plant failed: {e}"));
        }
        servers.push(server);
    }

    let templates = mix.templates();
    let optimized: Vec<LaneOpt> = mix
        .lanes
        .iter()
        .zip(&templates)
        .enumerate()
        .map(|(lane_id, (lane, template))| {
            let mut config = lane.config.clone();
            config.backchase.threads = knob;
            let result = spans.time(None, "optimizer.optimize", || {
                servers[lane_id].optimizer().optimize(template, &config)
            });
            LaneOpt {
                ms: spans.last_us() / 1e3,
                result,
            }
        })
        .collect();
    for o in &optimized {
        counts.explored += o.result.explored;
        counts.plans += o.result.plans.len();
    }

    let mut served = Vec::with_capacity(mix.requests.len());
    let mut overhead_us = Vec::with_capacity(mix.requests.len());
    for (id, request) in mix.requests.iter().enumerate() {
        let (lane, server) = (&mix.lanes[request.lane], &mut servers[request.lane]);
        let warm_up = server.serve(&lane.db, &request.query);
        checker.observe(id, warm_up.as_ref().map(|(_, r)| r.rows.as_slice()));
        drop(warm_up);
        let p = spans.time(Some(id), "serving.parameterize", || {
            parameterize(&request.query)
        });
        let constraints = server.optimizer().constraints();
        spans.time(Some(id), "serving.fingerprint", || {
            Fingerprint::new(&p.template, constraints)
        });
        if let Some(best) = optimized[request.lane].result.plans.first() {
            spans.time(Some(id), "serving.bind", || {
                bind_params(&best.query, &p.params)
            });
        }
        let plan = spans.time(Some(id), "serving.plan", || server.plan(&request.query));
        let plan_us = spans.last_us();
        let exec = spans.time(Some(id), "eval.execute", || execute(&lane.db, &plan.plan));
        let exec_us = spans.last_us();
        let response = spans.time(Some(id), "serving.serve", || {
            server.serve(&lane.db, &request.query)
        });
        overhead_us.push(spans.last_us() - plan_us - exec_us);
        checker.observe(id, response.as_ref().map(|(_, r)| r.rows.as_slice()));
        let wcoj = response.as_ref().is_ok_and(|(_, r)| ran_wcoj(r));
        match exec {
            Ok(r) => {
                counts.tuples_considered += r.stats.tuples_considered;
                counts.op_rows += op_rows(&r);
                counts.build_rows += build_rows(&r);
                counts.rows_out += r.stats.rows_out;
                served.push((work(&r), exec_us / 1e3, wcoj));
            }
            Err(e) => {
                checker.error(format!("request {id}: execute failed: {e}"));
                served.push((0, 0.0, wcoj));
            }
        }
    }

    let mut batch_s = [0.0; 2];
    for (slot, threads) in [1usize, 2].into_iter().enumerate() {
        for (lane, server) in mix.lanes.iter().zip(&mut servers) {
            batch_s[slot] += serve_lane(server, lane, threads, checker, |r| {
                counts.batch_op_rows[slot] += op_rows(r);
            });
        }
    }

    for server in &servers {
        counts.hits += server.cache().hits();
        counts.misses += server.cache().misses();
        counts.evictions += server.cache().evictions();
    }
    Pass {
        counts,
        optimized,
        served,
        overhead_us,
        batch_s,
    }
}

/// Executes one emitted plan the way its strategy says.
fn run_plan(
    db: &cnb_engine::Database,
    plan: &PlanInfo,
    bound: &Query,
) -> Result<(ExecResult, f64), cnb_engine::ExecError> {
    let started = Instant::now();
    let r = match plan.strategy {
        ExecStrategy::Wcoj => execute_wcoj(db, bound),
        _ => execute(db, bound),
    }?;
    Ok((r, started.elapsed().as_secs_f64() * 1e3))
}

/// Served plan against every emitted plan, for one request.
struct Regret {
    served_work: usize,
    served_ms: f64,
    best_work: usize,
    best_ms: f64,
    /// Index of the least-work emitted plan (`None`: the served plan).
    best_plan: Option<usize>,
}

impl Regret {
    fn ratio(&self) -> f64 {
        self.served_work as f64 / self.best_work.max(1) as f64
    }
}

/// Executes every plan `Optimizer::optimize` emitted for each request's
/// template, bound to the request's constants; each must answer like the
/// served plan.
fn regrets(mix: &Mix, first: &Pass, checker: &mut Checker) -> Vec<Regret> {
    mix.requests
        .iter()
        .enumerate()
        .map(|(id, request)| {
            let lane = &mix.lanes[request.lane];
            let params = parameterize(&request.query).params;
            let (served_work, served_ms, _) = first.served[id];
            let mut best = (served_work, served_ms, None);
            for (k, plan) in first.optimized[request.lane]
                .result
                .plans
                .iter()
                .enumerate()
            {
                let bound = bind_params(&plan.query, &params);
                match run_plan(&lane.db, plan, &bound) {
                    Ok((r, ms)) => {
                        checker.alternative(id, k, &r.rows);
                        let w = work(&r);
                        if w < best.0 || (w == best.0 && ms < best.1) {
                            best = (w, ms, Some(k));
                        }
                    }
                    Err(e) => checker.error(format!("request {id}: emitted plan {k}: {e}")),
                }
            }
            Regret {
                served_work,
                served_ms,
                best_work: best.0,
                best_ms: best.1,
                best_plan: best.2,
            }
        })
        .collect()
}

/// The traced run's output.
pub struct Traced {
    /// Per-layer metrics in `BENCHMARK.json` order, up to the `setup.*`
    /// metrics, which the caller adds once the last set-up ran.
    pub metrics: Vec<Metric>,
    /// Human-readable tables printed above the result line.
    pub report: Vec<String>,
    /// Counter mismatches between passes (empty when deterministic).
    pub drift: Vec<String>,
}

/// Runs the traced passes for about `seconds` (at least three passes).
pub fn run(
    mix: &mut Mix,
    seconds: f64,
    threads: usize,
    checker: &mut Checker,
) -> Result<Traced, String> {
    let n = mix.requests.len();
    // The untraced reference: the same closed loop the `--trace 0` run
    // measures, on the set-up servers, for a share of the budget.
    let mut untraced = window::run(mix, seconds * UNTRACED_SHARE, threads, checker)?;
    let seconds = seconds * (1.0 - UNTRACED_SHARE);

    let opened = Instant::now();
    let mut spans = Spans::default();
    let knobs = [threads, threads, 3 - threads.min(2)];
    let mut passes: Vec<(usize, Pass)> = Vec::new();
    let mut k = 0;
    while k < knobs.len() || opened.elapsed().as_secs_f64() < seconds {
        let knob = knobs.get(k).copied().unwrap_or(threads);
        passes.push((knob, pass(mix, knob, &mut spans, checker)));
        k += 1;
    }
    let first = &passes[0].1;
    let drift: Vec<String> = passes
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, (_, p))| p.counts != first.counts)
        .map(|(i, (knob, p))| {
            format!(
                "pass {i} (backchase threads {knob}) counted {:?}, pass 0 (threads {}) counted {:?}",
                p.counts, passes[0].0, first.counts
            )
        })
        .chain(
            (first.counts.batch_op_rows != [first.counts.op_rows; 2]).then(|| {
                format!(
                    "serve_batch op_rows at 1/2 threads {:?} differ from serial {}",
                    first.counts.batch_op_rows, first.counts.op_rows
                )
            }),
        )
        .collect();

    let regrets = regrets(mix, first, checker);
    let c = &first.counts;

    let mut overhead_us: Vec<f64> = passes
        .iter()
        .flat_map(|(_, p)| p.overhead_us.iter().copied())
        .collect();
    let optimize_ms = |f: &dyn Fn(&LaneOpt) -> f64| {
        let mut per_pass: Vec<f64> = passes
            .iter()
            .map(|(_, p)| p.optimized.iter().map(f).sum())
            .collect();
        median(&mut per_pass)
    };
    let batch = |slot: usize| passes.iter().map(|(_, p)| p.batch_s[slot]).sum::<f64>();
    let mut serve_us = spans.durations("serving.serve");
    let traced_serve = median(&mut serve_us);
    let untraced_serve = median(&mut untraced.latencies_ms) * 1e3;
    let mut ratios: Vec<f64> = regrets.iter().map(Regret::ratio).collect();
    let worst = ratios.iter().copied().fold(1.0, f64::max);
    let best_served = regrets
        .iter()
        .filter(|r| r.served_work <= r.best_work)
        .count();
    let wcoj_served = first.served.iter().filter(|s| s.2).count();
    let share = |k: usize| k as f64 / n.max(1) as f64;

    let metrics = vec![
        Metric::new(
            "serving.parameterize_us",
            "us",
            median(&mut spans.durations("serving.parameterize")),
        ),
        Metric::new(
            "serving.fingerprint_us",
            "us",
            median(&mut spans.durations("serving.fingerprint")),
        ),
        Metric::new(
            "serving.bind_us",
            "us",
            median(&mut spans.durations("serving.bind")),
        ),
        Metric::new(
            "serving.hit_ratio",
            "ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        ),
        Metric::new("serving.evictions", "count", c.evictions as f64),
        Metric::new(
            "serving.plan_us",
            "us",
            median(&mut spans.durations("serving.plan")),
        ),
        Metric::new("serving.overhead_us", "us", median(&mut overhead_us)),
        Metric::new(
            "serving.pool_speedup",
            "ratio",
            batch(0) / batch(1).max(1e-12),
        ),
        Metric::new("optimizer.optimize_ms", "ms", optimize_ms(&|o| o.ms)),
        Metric::new(
            "optimizer.chase_ms",
            "ms",
            optimize_ms(&|o| o.result.chase_time.as_secs_f64() * 1e3),
        ),
        Metric::new(
            "optimizer.backchase_ms",
            "ms",
            optimize_ms(&|o| o.result.backchase_time.as_secs_f64() * 1e3),
        ),
        Metric::new("optimizer.explored", "count", c.explored as f64),
        Metric::new("optimizer.plans", "count", c.plans as f64),
        Metric::new(
            "optimizer.plan_yield",
            "ratio",
            c.plans as f64 / c.explored.max(1) as f64,
        ),
        Metric::new(
            "eval.execute_us",
            "us",
            median(&mut spans.durations("eval.execute")),
        ),
        Metric::new(
            "eval.tuples_considered",
            "count",
            c.tuples_considered as f64,
        ),
        Metric::new("eval.op_rows", "count", c.op_rows as f64),
        Metric::new("eval.build_rows", "count", c.build_rows as f64),
        Metric::new(
            "eval.row_yield",
            "ratio",
            c.rows_out as f64 / c.tuples_considered.max(1) as f64,
        ),
        Metric::new("cost.regret", "ratio", worst),
        Metric::new("cost.regret_median", "ratio", median(&mut ratios)),
        Metric::new("cost.best_served_share", "share", share(best_served)),
        Metric::new("wcoj.served_share", "share", share(wcoj_served)),
        Metric::new(
            "trace.overhead_pct",
            "%",
            100.0 * (traced_serve / untraced_serve.max(1e-12) - 1.0),
        ),
    ];

    let mut report = report(mix, &passes, &regrets, &spans, &drift);
    report.push(format!(
        "# tracer: serve p50 {traced_serve:.1} us traced ({} calls) against {untraced_serve:.1} us untraced ({} calls)",
        serve_us.len(),
        untraced.latencies_ms.len()
    ));
    Ok(Traced {
        metrics,
        report,
        drift,
    })
}

/// The per-lane baseline tables: served plan against the best emitted plan
/// (work and ms), the chase/backchase split and the serve overhead.
fn report(
    mix: &Mix,
    passes: &[(usize, Pass)],
    regrets: &[Regret],
    spans: &Spans,
    drift: &[String],
) -> Vec<String> {
    let n = mix.requests.len();
    let plan_us = spans.by_request("serving.plan", n);
    let exec_us = spans.by_request("eval.execute", n);
    let serve_us = spans.by_request("serving.serve", n);
    let first = &passes[0].1;
    let mut out = vec![
        format!(
            "# traced passes: {} (backchase thread knobs {:?}); counters {}",
            passes.len(),
            passes.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            if drift.is_empty() { "identical" } else { "DIFFER" }
        ),
        format!("# counts (pass 0): {:?}", first.counts),
        "# lane | reqs | served work p50 | best work p50 | regret p50 | regret max | served ms p50 | best ms p50 | optimize ms | chase ms | backchase ms | explored | plans | plan us p50 | execute us p50 | serve-plan-exec us p50".to_string(),
    ];
    for (lane_id, lane) in mix.lanes.iter().enumerate() {
        let ids: Vec<usize> = (0..n)
            .filter(|&id| mix.requests[id].lane == lane_id)
            .collect();
        let pick = |f: &dyn Fn(usize) -> f64| {
            let mut xs: Vec<f64> = ids.iter().map(|&id| f(id)).collect();
            median(&mut xs)
        };
        let worst = ids
            .iter()
            .map(|&id| regrets[id].ratio())
            .fold(1.0, f64::max);
        let opt = &first.optimized[lane_id];
        out.push(format!(
            "# {} | {} | {} | {} | {:.2} | {:.2} | {:.3} | {:.3} | {:.2} | {:.3} | {:.2} | {} | {} | {:.1} | {:.1} | {:.1}",
            lane.label,
            ids.len(),
            pick(&|id| regrets[id].served_work as f64),
            pick(&|id| regrets[id].best_work as f64),
            pick(&|id| regrets[id].ratio()),
            worst,
            pick(&|id| regrets[id].served_ms),
            pick(&|id| regrets[id].best_ms),
            opt.ms,
            opt.result.chase_time.as_secs_f64() * 1e3,
            opt.result.backchase_time.as_secs_f64() * 1e3,
            opt.result.explored,
            opt.result.plans.len(),
            pick(&|id| plan_us[id]),
            pick(&|id| exec_us[id]),
            pick(&|id| serve_us[id] - plan_us[id] - exec_us[id]),
        ));
        if mix.lanes.len() == 1 {
            let plans = &opt.result.plans;
            let describe = |k: Option<usize>| match k.map(|k| (k, &plans[k])) {
                None => "the served plan".to_string(),
                Some((k, p)) => {
                    let over: Vec<String> = p
                        .query
                        .from
                        .iter()
                        .filter_map(|b| b.range.anchor().map(|a| a.to_string()))
                        .collect();
                    format!("plan #{k} ({:?} over {})", p.strategy, over.join("⋈"))
                }
            };
            for &id in &ids {
                let r = &regrets[id];
                out.push(format!(
                    "#   pick {}: served {} work {} ({:.3} ms); best {} work {} ({:.3} ms); regret {:.2}",
                    mix.requests[id].pick,
                    describe(Some(0)),
                    r.served_work,
                    r.served_ms,
                    describe(r.best_plan),
                    r.best_work,
                    r.best_ms,
                    r.ratio()
                ));
            }
        }
    }
    out
}
