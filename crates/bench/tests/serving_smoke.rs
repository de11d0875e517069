//! End-to-end smoke of the serving path: cache semantics, executor-pool
//! determinism, served-plan validity, and the open-loop harness.
//!
//! The properties here are the serving-path contract:
//! * row sets are a pure function of the request mix — the executor pool's
//!   thread count must never change them;
//! * a warm cache hit answers without running chase & backchase (audited
//!   via the process-wide [`chase_and_backchase_runs`] counter);
//! * the per-family point picks *partition* the central query — pooling
//!   the distinct rows over the whole pick domain reproduces the full
//!   query's distinct result, so the cached template + bound parameter
//!   really is the same query, not a lookalike;
//! * every served plan, cold and warm, passes `cnb_analyze::validate_plan`
//!   — the check the `cnb-analyze` gate applies to emitted plans.

use cnb_core::prelude::chase_and_backchase_runs;
use cnb_engine::PlanServer;
use cnb_workloads::{suite, DataScale, Workload};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The harness runs tests in parallel, and two tests here measure
/// something another test's work disturbs: the warm-hit audit reads the
/// process-wide run counter, which any cold miss moves, and the open-loop
/// test sizes its offered load from a capacity it measures on the wall
/// clock. Those two hold this lock exclusively; every other test holds it
/// shared.
static QUIET: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    QUIET.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    QUIET.write().unwrap_or_else(PoisonError::into_inner)
}

fn server_for(w: &dyn Workload) -> PlanServer {
    PlanServer::new(w.optimizer(), cnb_bench::config(w.expectations().strategy))
}

/// The executor pool is a throughput knob only: serving the same mix on
/// 1/2/4/8 workers returns byte-identical row sets in request order.
#[test]
fn row_sets_are_identical_at_every_thread_count() {
    let _quiet = shared();
    let scale = DataScale::new(120, 7);
    for w in suite() {
        let db = w.generate_at(scale);
        let requests: Vec<_> = (0..10).map(|i| w.serving_query(scale, i)).collect();
        let mut baseline = None;
        for threads in [1usize, 2, 4, 8] {
            let mut server = server_for(w.as_ref());
            let rows: Vec<_> = server
                .serve_batch(&db, &requests, threads)
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|e| panic!("{}: request failed: {e}", w.name()))
                        .1
                        .rows
                })
                .collect();
            match &baseline {
                None => baseline = Some(rows),
                Some(b) => assert_eq!(
                    b,
                    &rows,
                    "{}: {threads} worker threads changed the row sets",
                    w.name()
                ),
            }
        }
    }
}

/// A warm hit never re-plans: across a full warmed mix the process-wide
/// chase & backchase run counter does not move, for any family.
#[test]
fn warm_hits_answer_without_chase_and_backchase() {
    let _quiet = exclusive();
    let scale = DataScale::new(120, 7);
    for w in suite() {
        let db = w.generate_at(scale);
        let mut server = server_for(w.as_ref());
        let (plan, _) = server.serve(&db, &w.serving_query(scale, 0)).unwrap();
        assert!(!plan.cache_hit, "{}: first request must miss", w.name());
        let before = chase_and_backchase_runs();
        for pick in 1..8u64 {
            let (plan, _) = server.serve(&db, &w.serving_query(scale, pick)).unwrap();
            assert!(plan.cache_hit, "{}: warmed pick {pick} must hit", w.name());
        }
        assert_eq!(
            chase_and_backchase_runs(),
            before,
            "{}: a warm hit invoked the optimizer",
            w.name()
        );
        assert_eq!(server.cache().misses(), 1, "{}", w.name());
        assert_eq!(server.cache().hits(), 7, "{}", w.name());
    }
}

/// Sweeping the whole pick domain partitions the central query: the pooled
/// *distinct* rows over every point pick equal the full query's distinct
/// rows. This pins that the cached template + bound constant is
/// semantically the central query — a fingerprint collision, a mis-bound
/// parameter, or a wrong plan would all break the partition. Distinct
/// rather than multiset because C&B minimization is set-semantics (join
/// elimination may change multiplicities, as the paper's containment
/// theory allows).
#[test]
fn point_picks_partition_the_central_query() {
    let _quiet = shared();
    let scale = DataScale::new(90, 7);
    // Each family's serving pick domain (the modulus its `serving_query`
    // applies at this scale; see the per-family impls).
    let domains: [(Box<dyn Workload>, u64); 5] = [
        (Box::new(cnb_workloads::Ec1::new(3, 1)), scale.rows as u64),
        (
            Box::new(cnb_workloads::Ec2::new(2, 2, 1)),
            scale.rows as u64,
        ),
        (
            Box::new(cnb_workloads::Ec3::new(3, 1)),
            (scale.rows / 3).max(2) as u64,
        ),
        (Box::new(cnb_workloads::Ec4::new(3, 2, 1)), 20),
        (
            Box::new(cnb_workloads::Ec5::triangle()),
            (scale.rows / 2).max(2) as u64,
        ),
    ];
    for (w, domain) in &domains {
        let db = w.generate_at(scale);
        let mut full: Vec<String> = cnb_engine::execute(&db, &w.query())
            .unwrap()
            .rows
            .iter()
            .map(|r| r.to_string())
            .collect();
        let mut server = server_for(w.as_ref());
        let mut pooled: Vec<String> = Vec::new();
        for pick in 0..*domain {
            let (_, exec) = server.serve(&db, &w.serving_query(scale, pick)).unwrap();
            pooled.extend(exec.rows.iter().map(|r| r.to_string()));
        }
        full.sort();
        full.dedup();
        pooled.sort();
        pooled.dedup();
        assert_eq!(
            full,
            pooled,
            "{}: point picks over the domain 0..{domain} do not partition the central query",
            w.name()
        );
        assert_eq!(
            server.cache().misses(),
            1,
            "{}: one shape, one miss",
            w.name()
        );
    }
}

/// A served plan must pass the semantic validation the `cnb-analyze` gate
/// applies to backchase-emitted plans: a cached plan that fails it means
/// the cache served a plan the gate would reject. Checked for the cold
/// miss that plants each family's templates and for the warm hits that
/// bind them, in every build profile.
#[test]
fn served_plans_pass_validate_plan_cold_and_warm() {
    let _quiet = shared();
    let scale = DataScale::new(80, 7);
    for w in suite() {
        let db = w.generate_at(scale);
        let schema = w.schema();
        let mut server = server_for(w.as_ref());
        for pick in 0..6u64 {
            let (plan, _) = server
                .serve(&db, &w.serving_query(scale, pick))
                .unwrap_or_else(|e| panic!("{}: pick {pick} failed: {e}", w.name()));
            assert_eq!(plan.cache_hit, pick > 0, "{}: pick {pick}", w.name());
            cnb_analyze::validate::validate_plan(&schema, &plan.plan).unwrap_or_else(|e| {
                panic!(
                    "{}: served plan for pick {pick} fails validate_plan: {e}",
                    w.name()
                )
            });
        }
    }
}

/// The open-loop harness reconciles: every scheduled arrival lands in
/// exactly one outcome bucket, saturation (utilization > 1) produces
/// pressure casualties, and light load serves nearly everything.
#[test]
fn open_loop_buckets_reconcile_and_pressure_shows_up() {
    let _quiet = exclusive();
    use cnb_bench::serving::{run_open_loop, OpenLoopConfig};
    let scale = DataScale::new(80, 7);
    let cfg = OpenLoopConfig {
        requests: 60,
        utilizations: vec![0.5, 3.0],
        backlog_cap: 8,
        ..OpenLoopConfig::default()
    };
    for w in suite() {
        let points = run_open_loop(w.as_ref(), scale, 2, &cfg);
        assert_eq!(points.len(), 2, "{}", w.name());
        for p in &points {
            assert_eq!(
                p.served + p.shed + p.expired + p.faulted,
                p.requests,
                "{} u={}: buckets must reconcile",
                p.label,
                p.utilization
            );
            assert!(
                p.p50_ms <= p.p95_ms && p.p95_ms <= p.p99_ms,
                "{} u={}: sojourn percentiles must be monotone",
                p.label,
                p.utilization
            );
        }
        let (light, heavy) = (&points[0], &points[1]);
        assert!(
            light.served + light.faulted == light.requests,
            "{}: at half load nothing should be shed or expired (got {light:?})",
            w.name()
        );
        assert!(
            heavy.shed + heavy.expired > 0,
            "{}: at 3x capacity the backlog/deadline must bite (got {heavy:?})",
            w.name()
        );
        assert!(
            heavy.served < heavy.requests,
            "{}: overload cannot serve everyone",
            w.name()
        );
    }
}
