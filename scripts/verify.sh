#!/usr/bin/env bash
# Full offline verification gate: release build, workspace tests, the
# serial/parallel training-equivalence matrix, and clippy and rustdoc
# with warnings denied. Everything resolves against the vendored shims
# in shims/, so --offline always works.
#
# PROPTEST_CASES is pinned so property-test coverage is identical across
# CI runs (the proptest shim reads it, matching upstream's env override).
set -euo pipefail
cd "$(dirname "$0")/.."

PROPTEST_CASES="${PROPTEST_CASES:-64}"
export PROPTEST_CASES

# On AVX2-capable hosts the kernel-tier suites must run against the real
# SIMD dispatch: VSAN_REQUIRE_AVX2=1 turns "the fast tier silently fell
# back to scalar bodies" from a vacuous pass into a test failure
# (crates/core/tests/parallel_train.rs).
if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
  export VSAN_REQUIRE_AVX2=1
  echo "==> AVX2 host: exporting VSAN_REQUIRE_AVX2=1"
fi

# Nothing reads an oracle pin any more (DESIGN.md §10): each oracle is a
# function tests call by name, and the one process-wide switch left is
# configuration. A mention of either retired variable name is a
# regression.
echo "==> no oracle-pin environment variables"
if git grep -nE 'VSAN_DISABLE_(FAST_PATH|ANN)' -- crates tests src examples scripts; then
  echo "the oracle pins are gone; drop the mentions above" >&2
  exit 1
fi

# Run one `cargo test` command whole: it must pass, and no target may
# report an ignored test (a gate that quietly shelves a case only gates
# what is left). The output stays in ${out} for further checks.
run_whole() {
  local label="$1"
  shift
  out="$("$@" 2>&1)" || {
    echo "${out}"
    echo "${label} failed" >&2
    exit 1
  }
  if echo "${out}" | grep -E "^test result:" | grep -vq " 0 ignored"; then
    echo "${out}"
    echo "${label} has ignored tests; it must run whole" >&2
    exit 1
  fi
}

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

# benchmark/ is its own cargo workspace and the one place that names
# `Graph::*`, `EpochRecord`'s fields, `Vsan::train` and the kernels by
# path (benchmark/src/surface.rs): build it against this tree first, so
# a changed signature fails here and not in the pipeline. Same target
# directory as benchmark/run.sh, which the smoke pass at the end reuses.
echo "==> benchmark/ builds against the tree (--offline --locked)"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}" \
  cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

# The workspace run is also the no-ignored check for every crate: the
# differential gates only gate what actually runs, and an `ignored` test
# would silently hollow them out (vsan-models' head-compaction suite,
# DESIGN.md §10 "Only rows with a target reach the head", is the only
# holder of that claim per head shape and padding share).
echo "==> cargo test -q --offline (PROPTEST_CASES=${PROPTEST_CASES})"
run_whole "cargo test --workspace" cargo test --workspace -q --offline

# Chaos matrix: the fault-injection suite must hold under several
# distinct failpoint schedules, not just the default seed.
echo "==> chaos matrix (VSAN_FAILPOINT_SEED x3)"
for seed in 1 7 99991; do
  echo "    -- seed ${seed}"
  run_whole "vsan-serve under VSAN_FAILPOINT_SEED=${seed}" \
    env VSAN_FAILPOINT_SEED="${seed}" cargo test -q --offline -p vsan-serve
done

# Threads-matrix smoke: re-run the data-parallel equivalence suite under
# an explicit serial + even + beyond-batch-size matrix so CI exercises
# both the inline path (threads=1) and genuinely pooled paths even if the
# suite's default matrix changes.
echo "==> equivalence matrix (VSAN_THREADS_MATRIX=1,2,8)"
VSAN_THREADS_MATRIX=1,2,8 cargo test -q --offline -p vsan-core --test parallel_train

# The differential suites, by name, one run per crate. Each holds a fast
# path to its oracle in the same process, both called by name (DESIGN.md
# §10–§12): the plan vs the graph forward (fast_path, golden_logits),
# the fast tier vs the reference tier (tier_differential, gradcheck_ops,
# golden_train), the append pass vs the graph oracle (session_incremental,
# the session runtime and engine suites, whose capacity-0 arm is the one
# full-recompute mode), and the clustered index vs exact retrieval
# (retrieval). `cargo test --workspace` already ran them; naming them
# here makes a renamed or deleted target fail (cargo rejects an unknown
# `--test`), an emptied one fail (0 passed), and an ignored test fail.
echo "==> differential suites by name"
suites() {
  local crate="$1"
  shift
  local args=()
  for t in "$@"; do args+=(--test "${t}"); done
  run_whole "${crate} suites ($*)" cargo test -q --offline -p "${crate}" "${args[@]}"
  if echo "${out}" | grep -q "^test result: ok. 0 passed"; then
    echo "${out}"
    echo "a named ${crate} suite ran no test" >&2
    exit 1
  fi
}
suites vsan-core fast_path golden_train session_incremental retrieval
suites vsan-repro golden_logits
suites vsan-autograd tier_differential gradcheck_ops
suites vsan-session runtime store_props
suites vsan-serve session retrieval trace

# The kernels under the fast paths, as dispatched (with
# VSAN_REQUIRE_AVX2=1 that must be the AVX2 twin): the tiled matmul nest —
# its baseline build too, inlined into the test — and both tiers' tensor
# products held to the naive ascending-k fold over the nest's edge matrix
# (every n % 16, single-row tiles, both sides of the row chunk), and the
# attention kernel — baseline build too, same way — held to the composed
# ops over the (prefix, tail, keep, d) matrix. Named here so a rename, a
# filter that matches nothing, or an `ignored` attribute fails the gate
# instead of thinning it.
echo "==> matmul + attention kernel matrices"
run_whole "kernel matrices" cargo test -q --offline -p vsan-tensor --lib -- --exact \
  ops::matmul::tests::tiled_nest_is_bit_identical_to_naive_fold_over_the_edge_matrix \
  ops::matmul::tests::blocked_kernel_is_bit_identical_to_naive_fold \
  ops::attention::tests::row_kernel_matches_composed_ops_over_the_shape_matrix \
  ops::attention::tests::non_finite_future_rows_never_reach_earlier_queries
if ! echo "${out}" | grep -q "^test result: ok. 4 passed; 0 failed; 0 ignored"; then
  echo "${out}"
  echo "the kernel matrices did not run whole (expected 4 passed, 0 ignored)" >&2
  exit 1
fi

# The same crate once more as it ships: optimized codegen is what serves
# and trains, and `debug_assert!` is compiled out there, so this is the
# run in which the stamped kernels' length checks (`assert_eq!`, with
# `#[should_panic]` cases per signature shape) can fail.
echo "==> vsan-tensor unit tests, release profile"
cargo test -q --offline --release -p vsan-tensor --lib

# The committed retrieval report must attest the recall gate — every
# catalog size holds recall@50 >= 0.95 against the exact oracle — and
# the million-item speedup claim (clustered >= 5x brute force).
echo "==> results/BENCH_retrieval.json recall_at_50 >= 0.95 + speedup attestations"
if [ ! -f results/BENCH_retrieval.json ]; then
  echo "results/BENCH_retrieval.json missing — run: cargo run --release -p vsan-bench --bin retrieval_bench" >&2
  exit 1
fi
if ! grep -q '"full_probe_bitwise": true' results/BENCH_retrieval.json; then
  echo "results/BENCH_retrieval.json lacks \"full_probe_bitwise\": true" >&2
  exit 1
fi
if ! awk '
  /"recall_at_50"/ {
    for (i = 1; i <= NF; i++) if ($i ~ /"recall_at_50":/) {
      v = $(i + 1); gsub(/[,}]/, "", v); n++
      if (v + 0 < 0.95) bad = 1
    }
  }
  END { exit (n == 0 || bad) }
' results/BENCH_retrieval.json; then
  echo "a \"recall_at_50\" in results/BENCH_retrieval.json is missing or < 0.95" >&2
  exit 1
fi
speedup="$(sed -n 's/.*"min_clustered_speedup": \([0-9.]*\).*/\1/p' results/BENCH_retrieval.json | head -n1)"
if [ -z "${speedup}" ]; then
  echo "results/BENCH_retrieval.json lacks \"min_clustered_speedup\" — regenerate with retrieval_bench" >&2
  exit 1
fi
if ! awk -v s="${speedup}" 'BEGIN { exit !(s >= 5.0) }'; then
  echo "min_clustered_speedup ${speedup} < 5.0 — the index no longer pays for itself at 1M items" >&2
  exit 1
fi

# One-core schedule: a session event is answered before its state is
# re-prepared, and a pool worker catches the state up afterwards
# (DESIGN.md §11), so which thread prepares what depends on the
# schedule while the replies must not. Pinning every thread of the test
# process to one core is the schedule in which the refresh loses every
# race it can lose; the session and trace suites run once more there.
# Skipped where `taskset` does not exist.
if command -v taskset >/dev/null 2>&1; then
  echo "==> session + trace suites on one core (taskset -c 0)"
  taskset -c 0 cargo test -q --offline -p vsan-session
  taskset -c 0 cargo test -q --offline -p vsan-serve --test session --test trace
else
  echo "==> taskset not found: skipping the one-core session + trace schedule"
fi

# The committed serving report must attest that tracing is effectively
# free: p50/p99 latency with the flight recorder on regresses < 3%
# against the same engine with tracing disabled, the traced and
# untraced twins served identical bits, and at least one histogram
# carries a real (nonzero) trace-id exemplar.
echo "==> results/BENCH_serve.json trace_overhead < 3% attestation"
if [ ! -f results/BENCH_serve.json ]; then
  echo "results/BENCH_serve.json missing — run: cargo run --release -p vsan-bench --bin serve_bench" >&2
  exit 1
fi
if ! grep -q '"trace_overhead"' results/BENCH_serve.json; then
  echo "results/BENCH_serve.json lacks the trace_overhead phase — regenerate with serve_bench" >&2
  exit 1
fi
for q in p50 p99; do
  pct="$(sed -n "s/.*\"${q}_overhead_pct\": \(-\{0,1\}[0-9.]*\).*/\1/p" results/BENCH_serve.json | head -n1)"
  if [ -z "${pct}" ]; then
    echo "results/BENCH_serve.json lacks \"${q}_overhead_pct\" — regenerate with serve_bench" >&2
    exit 1
  fi
  if ! awk -v p="${pct}" 'BEGIN { exit !(p < 3.0) }'; then
    echo "${q} tracing overhead ${pct}% >= 3% — tracing is no longer effectively free" >&2
    exit 1
  fi
done
if ! grep -q '"results_match": true' results/BENCH_serve.json; then
  echo "results/BENCH_serve.json lacks \"results_match\": true — tracing changed served bits" >&2
  exit 1
fi
exemplar="$(sed -n 's/.*"exemplar_trace": *"\([0-9a-f]*\)".*/\1/p' results/BENCH_serve.json | head -n1)"
if [ -z "${exemplar}" ] || [ "${exemplar}" = "0000000000000000" ]; then
  echo "results/BENCH_serve.json lacks a nonzero \"exemplar_trace\" — regenerate with serve_bench" >&2
  exit 1
fi

# Instrumented smoke pass: trains and serves with full telemetry
# attached, then validates the JSONL streams (fails on zero events,
# any record that does not parse, a flight-recorder trace graph whose
# spans do not all resolve to an admission root, or a live Prometheus
# scrape whose body does not round-trip through the parser).
echo "==> obs_smoke (instrumented train + serve telemetry)"
cargo run --release --offline -q -p vsan-bench --bin obs_smoke

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Doc links are the only place a deleted public name can dangle
# unnoticed: rustdoc's broken/private/ambiguous-link lints are errors.
echo "==> cargo doc --offline (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# benchmark/ is its own cargo workspace, so nothing above compiles it:
# the smoke pass builds it against the crates' public functions and runs
# every workload at toy sizes with the schema + output checks.
echo "==> benchmark smoke (bash benchmark/run.sh --smoke)"
bash benchmark/run.sh --smoke

echo "==> verify OK"
