//! The repository benchmark: end-to-end serving latency and throughput of
//! the C&B plan server on three workloads, and a traced run per layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload warm_mix|cold_mix|skew_tri --seed N --seconds S --trace 0|1
//! ```
//!
//! The benchmark drives only public API from outside the program. It sets
//! every thread knob explicitly to `min(nproc, 2)` (backchase workers and
//! `serve_batch` executor threads) and ignores `CNB_THREADS`. It sets the
//! workload up several times, measures for `--seconds`, and then sets it up
//! several times more; `setup_s` is the median over all of these set-ups.
//! The measured window is one of:
//!
//! * `--trace 0`: the untraced window ([`window`]); prints the end-to-end
//!   metrics.
//! * `--trace 1`: the traced passes ([`trace`]); prints the per-layer
//!   metrics and the per-lane baseline tables.
//!
//! Every response goes through the answer check ([`check`]). The last line
//! of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0 only
//! when every response was right and every traced counter repeated.

// Timing is this binary's job.
#![allow(clippy::disallowed_methods)]

mod check;
mod mix;
mod stats;
mod trace;
mod window;

use std::process::ExitCode;

use check::Checker;
use mix::{Kind, Mix};
use stats::{median, Metric};

/// The seed a run uses when `--seed` is absent.
const DEFAULT_SEED: u64 = 42;
/// Fewest set-ups before the window, and again after it; `setup_s` is the
/// median over both groups. Sampling on both sides of the window spreads
/// the set-ups over the run, so a few slow seconds of a shared host move
/// half of the samples rather than all of them.
const SETUPS_MIN: usize = 5;
/// Each group of set-ups goes on past [`SETUPS_MIN`] until it has taken
/// this many seconds, so a set-up of a few ms is sampled hundreds of times.
const SETUP_BUDGET_S: f64 = 1.5;
/// Samples the tail percentile must leave above it.
const TAIL_BEYOND: usize = 10;

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 25.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        kind,
        name,
        seed,
        seconds,
        trace,
    })
}

/// Set-up times of one run, seconds.
#[derive(Default)]
struct SetUps {
    total: Vec<f64>,
    generate: Vec<f64>,
    plant: Vec<f64>,
}

impl SetUps {
    /// Sets the workload up at least [`SETUPS_MIN`] times and for at least
    /// [`SETUP_BUDGET_S`] seconds, records each set-up, and returns the
    /// last one.
    fn sample(&mut self, args: &Args, threads: usize) -> Result<Mix, String> {
        let (mut count, mut spent) = (0, 0.0);
        let mut kept = None;
        while count < SETUPS_MIN || spent < SETUP_BUDGET_S {
            // Free the previous set-up first so the runs do not stack memory.
            drop(kept.take());
            let mix = mix::set_up(args.kind, args.seed, threads)?;
            self.total.push(mix.setup_s());
            self.generate.push(mix.generate_s);
            self.plant.push(mix.plant_s);
            count += 1;
            spent += mix.setup_s();
            kept = Some(mix);
        }
        Ok(kept.expect("at least one set-up"))
    }

    /// Median set-up, generation and plant seconds.
    fn medians(&mut self) -> (f64, f64, f64) {
        (
            median(&mut self.total),
            median(&mut self.generate),
            median(&mut self.plant),
        )
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut setups = SetUps::default();
    let mut mix = setups.sample(args, threads)?;
    let before = setups.total.len();
    let mut checker = Checker::new(mix.requests.len());
    println!(
        "# workload {} seed {} threads {threads} lanes {} distinct requests {} trace {}",
        args.name,
        args.seed,
        mix.lanes.len(),
        mix.requests.len(),
        u8::from(args.trace)
    );

    let (mut metrics, drift) = if args.trace {
        let traced = trace::run(&mut mix, args.seconds, threads, &mut checker)?;
        for line in &traced.report {
            println!("{line}");
        }
        (traced.metrics, traced.drift)
    } else {
        let mut w = window::run(&mut mix, args.seconds, threads, &mut checker)?;
        let p50 = median(&mut w.latencies_ms);
        let (tail_ms, tail_pct, n) = stats::tail(&mut w.latencies_ms, TAIL_BEYOND);
        let lanes: Vec<String> = mix
            .lanes
            .iter()
            .zip(&mut w.lane_latencies_ms)
            .map(|(lane, xs)| format!("{} {:.4}", lane.label, median(xs)))
            .collect();
        println!("# latency p50 ms by lane: {}", lanes.join(", "));
        let rounds = w.round_rps.len();
        let rps = median(&mut w.round_rps);
        println!(
            "# rounds {rounds}: latency p50 {p50:.4} ms, tail p{tail_pct:.2} {tail_ms:.4} ms over {n} serve calls; throughput {rps:.2} req/s (median round, serve_batch at {threads} threads)"
        );
        println!(
            "# peak_rss_mb {:.2} after the first round; {:.2} at the end of the window",
            w.peak_rss_mb,
            stats::peak_rss_mb()?
        );
        let metrics = vec![
            Metric::new("latency_p50_ms", "ms", p50),
            Metric::new("latency_tail_ms", "ms", tail_ms),
            Metric::new("throughput_rps", "1/s", rps),
            Metric::new("peak_rss_mb", "MB", w.peak_rss_mb),
        ];
        (metrics, Vec::new())
    };

    let (verdict, notes) = checker.judge(&mix);
    // The second group of set-ups, once the window's own set-up is freed.
    drop(mix);
    drop(setups.sample(args, threads)?);
    let (setup_s, generate_s, plant_s) = setups.medians();
    println!(
        "# setup: median {setup_s:.6} s over {} set-ups, {before} before the window (generate {generate_s:.6} s, plant {plant_s:.6} s)",
        setups.total.len()
    );
    if args.trace {
        metrics.push(Metric::new("setup.generate_s", "s", generate_s));
        metrics.push(Metric::new("setup.plant_s", "s", plant_s));
    } else {
        metrics.push(Metric::new("setup_s", "s", setup_s));
    }
    for note in notes.iter().chain(&drift) {
        eprintln!("{}: {note}", args.name);
    }
    println!(
        "# failed_share {} ({} of {} responses; {} distinct requests answered differently from execute_legacy)",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        verdict.failed,
        verdict.attempted,
        verdict.wrong_requests
    );
    let correct = verdict.failed == 0 && drift.is_empty();
    println!(
        "{}",
        stats::result_line(correct, verdict.attempted.max(1), verdict.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    // Thread counts are set explicitly; nothing may inherit this one.
    std::env::remove_var("CNB_THREADS");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cnb-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cnb-benchmark: {}: {e}", args.name);
            ExitCode::FAILURE
        }
    }
}
