//! The three workloads: what data each one generates, which servers it
//! builds, which requests it sends and in what order.
//!
//! A workload is a set of *lanes*. A lane is one schema with its database,
//! its optimizer settings and its plan-cache bound; each lane gets its own
//! [`PlanServer`]. The request stream is a list of distinct requests, each
//! tagged with its lane, in a seeded order that the closed loop cycles
//! through.

use std::time::Instant;

use cnb_core::prelude::{parameterize, OptimizerConfig, Strategy};
use cnb_engine::prng::SplitMix64;
use cnb_engine::{Database, PlanServer};
use cnb_ir::prelude::Query;
use cnb_workloads::{suite, DataScale, Ec1, Ec2, Ec3, Ec4, Ec5, Workload};

/// `warm_mix` base size: rows per relation (EC5: edges / 2).
const WARM_ROWS: usize = 2000;
/// `warm_mix` distinct serving picks per family.
const WARM_PICKS: u64 = 20;
/// `cold_mix` base size: the smoke scale the test suites run at.
const COLD_ROWS: usize = 200;
/// `cold_mix` distinct serving picks per instance.
const COLD_PICKS: u64 = 4;
/// `skew_tri` base size: `generate_skewed_at` makes `rows / 4` nodes and
/// `3 * rows` hub-concentrated edges. 20 rows gives 5 pins, an odd count,
/// so the median request is one pin and not the edge between two.
const SKEW_ROWS: usize = 20;
/// `skew_tri` graph seed. The graph is fixed and the workload seed does not
/// change it: on a graph this small the hub's degree, and with it the hub
/// request's cost, moves by tens of percent from seed to seed.
const SKEW_DATA_SEED: u64 = 7;

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every measured request is a plan-cache hit.
    WarmMix,
    /// Every request misses: the cache holds nothing.
    ColdMix,
    /// EC5 triangle on a skewed graph, each node pinned in turn.
    SkewTri,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "warm_mix" => Some(Kind::WarmMix),
            "cold_mix" => Some(Kind::ColdMix),
            "skew_tri" => Some(Kind::SkewTri),
            _ => None,
        }
    }
}

/// One schema, its data and how its server is configured.
pub struct Lane {
    /// Family or instance label, as the traced tables print it.
    pub label: &'static str,
    /// The workload that defines the schema, queries and data.
    pub workload: Box<dyn Workload>,
    /// The generated database, physical structures materialized.
    pub db: Database,
    /// Optimizer settings for cache misses.
    pub config: OptimizerConfig,
    /// Plan-cache bound; `None` is unbounded.
    pub capacity: Option<usize>,
    /// The request set-up sends cold, before the window opens.
    pub plant: Query,
    /// Ids of this lane's requests, in stream order.
    pub ids: Vec<usize>,
    /// The same requests, as the lane's `serve_batch` batch.
    pub batch: Vec<Query>,
}

impl Lane {
    /// A fresh server for this lane whose backchase runs on `threads`
    /// workers.
    pub fn server(&self, threads: usize) -> PlanServer {
        let mut config = self.config.clone();
        config.backchase.threads = threads;
        let server = PlanServer::new(self.workload.optimizer(), config);
        match self.capacity {
            Some(capacity) => server.with_cache_capacity(capacity),
            None => server,
        }
    }
}

/// One distinct request of the stream.
pub struct Request {
    /// Index into [`Mix::lanes`].
    pub lane: usize,
    /// The serving pick the request was made from.
    pub pick: u64,
    /// The request as the client sends it.
    pub query: Query,
}

/// A set-up workload, ready for its measured window.
pub struct Mix {
    /// Schemas, data and server settings.
    pub lanes: Vec<Lane>,
    /// One warm server per lane.
    pub servers: Vec<PlanServer>,
    /// Distinct requests in stream order.
    pub requests: Vec<Request>,
    /// Seconds spent generating and materializing data.
    pub generate_s: f64,
    /// Seconds spent building servers and serving the cold plants.
    pub plant_s: f64,
}

impl Mix {
    /// Seconds from the start of set-up to a ready window.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.plant_s
    }

    /// Distinct templates, one per lane (every lane serves one shape).
    pub fn templates(&self) -> Vec<Query> {
        self.lanes
            .iter()
            .map(|l| parameterize(&l.plant).template)
            .collect()
    }
}

/// A lane before its data exists.
struct LaneSpec {
    label: &'static str,
    workload: Box<dyn Workload>,
    scale: DataScale,
    skewed: bool,
    strategy: Strategy,
    capacity: Option<usize>,
    picks: Vec<u64>,
    plant_pick: u64,
}

fn lane_specs(kind: Kind, seed: u64, rng: &mut SplitMix64) -> Vec<LaneSpec> {
    let consecutive = |rng: &mut SplitMix64, n: u64| {
        let base = rng.next_u64() % 1000;
        ((base..base + n).collect::<Vec<u64>>(), base + n)
    };
    match kind {
        Kind::WarmMix => suite()
            .into_iter()
            .map(|w| {
                let (picks, plant_pick) = consecutive(rng, WARM_PICKS);
                LaneSpec {
                    label: w.name(),
                    strategy: w.expectations().strategy,
                    workload: w,
                    scale: DataScale::new(WARM_ROWS, seed),
                    skewed: false,
                    capacity: None,
                    picks,
                    plant_pick,
                }
            })
            .collect(),
        Kind::ColdMix => {
            // The instances BENCH_backchase.json tracks, under FB.
            let instances: Vec<(&'static str, Box<dyn Workload>)> = vec![
                ("ec1_4_2", Box::new(Ec1::new(4, 2))),
                ("ec2_1_4_2", Box::new(Ec2::new(1, 4, 2))),
                ("ec3_3", Box::new(Ec3::new(3, 0))),
                ("ec4_4_3_2", Box::new(Ec4::new(4, 3, 2))),
                ("ec5_tri_wedge_idx", Box::new(Ec5::new(3, true, true))),
            ];
            instances
                .into_iter()
                .map(|(label, workload)| {
                    let (picks, plant_pick) = consecutive(rng, COLD_PICKS);
                    LaneSpec {
                        label,
                        workload,
                        scale: DataScale::new(COLD_ROWS, seed),
                        skewed: false,
                        strategy: Strategy::Full,
                        capacity: Some(0),
                        picks,
                        plant_pick,
                    }
                })
                .collect()
        }
        Kind::SkewTri => {
            // Every node id once per round, in node order (the hub, node 0,
            // first); the plant is the last, least connected node. The node
            // count is `generate_skewed_at`'s.
            let pins = (SKEW_ROWS / 4).max(2) as u64;
            let w = Ec5::triangle();
            vec![LaneSpec {
                label: "EC5",
                strategy: w.expectations().strategy,
                workload: Box::new(w),
                scale: DataScale::new(SKEW_ROWS, SKEW_DATA_SEED),
                skewed: true,
                capacity: None,
                picks: (0..pins).collect(),
                plant_pick: pins - 1,
            }]
        }
    }
}

/// Generates the data, builds one server per lane on `threads` backchase
/// workers and serves each lane's cold plant. `seed` fixes every input.
pub fn set_up(kind: Kind, seed: u64, threads: usize) -> Result<Mix, String> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let specs = lane_specs(kind, seed, &mut rng);

    let started = Instant::now();
    let mut lanes = Vec::with_capacity(specs.len());
    let mut picks = Vec::with_capacity(specs.len());
    for spec in specs {
        let db = if spec.skewed {
            spec.workload
                .generate_skewed_at(spec.scale)
                .ok_or_else(|| format!("{}: no skewed generator", spec.label))?
        } else {
            spec.workload.generate_at(spec.scale)
        };
        let plant = spec.workload.serving_query(spec.scale, spec.plant_pick);
        let queries: Vec<(u64, Query)> = spec
            .picks
            .iter()
            .map(|&p| (p, spec.workload.serving_query(spec.scale, p)))
            .collect();
        picks.push(queries);
        lanes.push(Lane {
            label: spec.label,
            workload: spec.workload,
            db,
            config: OptimizerConfig::with_strategy(spec.strategy),
            capacity: spec.capacity,
            plant,
            ids: Vec::new(),
            batch: Vec::new(),
        });
    }
    let generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut servers = Vec::with_capacity(lanes.len());
    for lane in &lanes {
        let mut server = lane.server(threads);
        server
            .serve(&lane.db, &lane.plant)
            .map_err(|e| format!("{}: cold plant failed: {e}", lane.label))?;
        servers.push(server);
    }
    let plant_s = started.elapsed().as_secs_f64();

    let mut requests: Vec<Request> = picks
        .into_iter()
        .enumerate()
        .flat_map(|(lane, qs)| {
            qs.into_iter()
                .map(move |(pick, query)| Request { lane, pick, query })
        })
        .collect();
    if kind != Kind::SkewTri {
        shuffle(&mut requests, &mut rng);
    }
    for (id, request) in requests.iter().enumerate() {
        let lane = &mut lanes[request.lane];
        lane.ids.push(id);
        lane.batch.push(request.query.clone());
    }
    Ok(Mix {
        lanes,
        servers,
        requests,
        generate_s,
        plant_s,
    })
}

/// Seeded Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}
