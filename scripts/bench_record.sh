#!/usr/bin/env bash
# Records the perf trajectory into JSON files at the repo root:
# * BENCH_backchase.json — optimization-time numbers (fig. 6/7 workloads
#   plus the EC4 star-schema and EC5 cyclic-join workloads of figs. 11/12,
#   full backchase, 1/2/4 worker threads), a wcoj section (ec5_tri_wcoj:
#   the generic-join operator vs the best wedge-view plan on uniform and
#   skewed triangle data — wcoj must win the skewed point, where the
#   binary intermediate exceeds the certified AGM bound), and two micro
#   sections: micro.congruence (savepoint churn) and micro.execution
#   (batched vs. tuple-at-a-time join throughput on the EC1 chain — the
#   batched path must not be slower).
# * BENCH_serving.json — the serving path under pressure, open loop only:
#   per EC1–EC5 serving mix, scheduled arrivals at 0.5/0.9/1.2x measured
#   capacity against a bounded backlog with deadlines and seeded fault
#   injection, reporting served/shed/expired/faulted/retry counts and
#   p50/p95/p99 sojourn per offered load. Warm serving latency and
#   throughput, end to end, are the repo benchmark's (BENCHMARK.json,
#   benchmark/README.md), not this script's.
# Fully offline; ~a minute of measurement on a laptop-class core.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -q --bin record_backchase --bin record_serving" >&2
cargo build --release -q --bin record_backchase --bin record_serving

# Never record numbers for a workspace the static-analysis gate rejects:
# a taint, validation, or AGM-certification finding means the
# measured code is off-contract. The decision is read from the
# machine-readable JSON report, not scraped from exit text — the same
# artifact scripts/check.sh leaves behind.
echo "==> cnb-analyze gate (all prongs, JSON report)" >&2
analysis_json=target/cnb-analyze.json
cargo run --release -q -p cnb-analyze -- all . --json "$analysis_json" >&2 || true
# The top-level verdict is the report's last field, on its own 2-space
# indented line — the nested validate/agm "ok" fields are inline in their
# objects, so the anchored match below cannot confuse them.
if ! grep -q '^  "ok": true$' "$analysis_json"; then
  echo "error: $analysis_json does not say \"ok\": true — refusing to record" >&2
  exit 1
fi

# Recording with a stale binary silently benchmarks old code; fail loudly if
# the build somehow left a binary missing or older than any library/binary
# source it is built from: its own file under crates/bench/src/bin, the
# cnb-bench library and the four library crates it links. The other
# binary's source, benches/, tests/ and crates/analyze (a dev-dependency of
# the serving smoke test) are not in its build graph, so cargo legitimately
# skips relinking when only those change.
for name in record_backchase record_serving; do
  bin=target/release/$name
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin missing after the release build — refusing to record" >&2
    exit 1
  fi
  stale=$(find crates/{ir,core,engine,workloads,bench}/src \
    -path 'crates/bench/src/bin/*' ! -name "$name.rs" -prune \
    -o -name '*.rs' -newer "$bin" -print -quit)
  if [[ -n "$stale" ]]; then
    echo "error: release build is stale ($stale is newer than $bin) — refusing to record" >&2
    exit 1
  fi
done

./target/release/record_backchase >BENCH_backchase.json
echo "wrote $(pwd)/BENCH_backchase.json:"
cat BENCH_backchase.json

./target/release/record_serving >BENCH_serving.json
echo "wrote $(pwd)/BENCH_serving.json:"
cat BENCH_serving.json
