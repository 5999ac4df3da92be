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

# Performance numbers come only from fresh benchmark/ runs: its
# retrieval_100k check holds full-probe equality and recall, and every
# traced run measures client.trace_overhead_pct. A committed report
# would be a number nothing re-measures.
echo "==> no committed results/BENCH_* reports"
if [ -n "$(git ls-files 'results/BENCH_*')" ]; then
  git ls-files 'results/BENCH_*'
  echo "performance reports are not committed; run benchmark/run.sh instead" >&2
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
# every entry point on the edge histories (edge_histories: empty,
# padding-only, out-of-vocabulary, k past the catalog), the fast tier vs
# the reference tier (tier_differential, batch and windowed attention;
# gradcheck_ops; golden_train), the append pass vs the graph oracle
# (session_incremental, the session runtime and engine suites, whose
# capacity-0 arm is the one full-recompute mode), and the clustered
# index vs exact retrieval (retrieval). `cargo test --workspace` already
# ran them; naming them
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
suites vsan-repro golden_logits edge_histories
suites vsan-autograd tier_differential gradcheck_ops
suites vsan-session runtime store_props
suites vsan-serve session retrieval trace

# The kernels under the fast paths, as dispatched (with
# VSAN_REQUIRE_AVX2=1 that must be the AVX2 twin): the tiled matmul nest —
# its baseline build too, inlined into the test — and both tiers' tensor
# products held to the naive ascending-k fold over the nest's edge matrix
# (every n % 16, single-row tiles, both sides of the row chunk), the
# attention kernel — baseline build too, same way — held to the composed
# ops over the (prefix, tail, keep, d) matrix, and the row-restricted
# training kernels held to the square ones with the unqueried rows
# zeroed. Named here so a rename, a filter that matches nothing, or an
# `ignored` attribute fails the gate instead of thinning it.
echo "==> matmul + attention kernel matrices"
run_whole "kernel matrices" cargo test -q --offline -p vsan-tensor --lib -- --exact \
  ops::matmul::tests::tiled_nest_is_bit_identical_to_naive_fold_over_the_edge_matrix \
  ops::matmul::tests::blocked_kernel_is_bit_identical_to_naive_fold \
  ops::attention::tests::row_kernel_matches_composed_ops_over_the_shape_matrix \
  ops::attention::tests::non_finite_future_rows_never_reach_earlier_queries \
  ops::attention::tests::train_row_kernels_match_the_square_kernels_with_zeroed_queries
if ! echo "${out}" | grep -q "^test result: ok. 5 passed; 0 failed; 0 ignored"; then
  echo "${out}"
  echo "the kernel matrices did not run whole (expected 5 passed, 0 ignored)" >&2
  exit 1
fi

# A training shard computes its longest padding prefix once (DESIGN.md
# §7): held by name to the fully padded windows it replaces — the same
# loss bits and the same gradients regrouped, on both tiers — and to the
# layout it promises (the most padded window first, the others reading
# their prefix from it, no sharing without padding).
echo "==> shared-padding shard"
run_whole "shared-padding shard" cargo test -q --offline -p vsan-core --lib -- --exact \
  model::tests::a_shard_computes_shared_padding_once_and_the_same_loss \
  model::tests::the_window_with_the_most_padding_computes_it
if ! echo "${out}" | grep -q "^test result: ok. 2 passed; 0 failed; 0 ignored"; then
  echo "${out}"
  echo "the shared-padding shard checks did not run whole (expected 2 passed, 0 ignored)" >&2
  exit 1
fi

# The clustered index's walk, held by name to its oracles: the walk
# against a reference written with the reference kernels, the old
# comparator and the HashSet exclusion (ids, probe stats and every
# k-major panel score bit for bit, slack {0, 0.35, 1} x forced prefix
# {0, nc/3, nc}, tied and untied, cluster sizes over every cnt % 16
# strip tail); the history excluded by slot over the edge histories and
# a table with a NaN and a +inf row; the coarse stage's u64 sort keys
# against the comparator they replaced (NaN, +-0.0, exact ties); and the
# certificate proptest (slack 1 always certified and exact, a certified
# reply exact at the default slack). A rename, a filter that matches
# nothing or an `ignored` attribute fails the gate instead of quietly
# removing the check.
echo "==> clustered retrieval oracles"
run_whole "clustered retrieval oracles" cargo test -q --offline -p vsan-core --lib -- --exact \
  retrieval::tests::partial_probes_match_the_row_major_reference_bit_for_bit \
  retrieval::tests::exclusion_by_slot_matches_exact_over_edge_histories_and_non_finite_rows \
  retrieval::tests::coarse_order_keys_match_the_comparator
if ! echo "${out}" | grep -q "^test result: ok. 3 passed; 0 failed; 0 ignored"; then
  echo "${out}"
  echo "the retrieval oracles did not run whole (expected 3 passed, 0 ignored)" >&2
  exit 1
fi
run_whole "retrieval certificate" cargo test -q --offline -p vsan-core --test retrieval -- --exact \
  alpha_one_equals_exact_in_order
if ! echo "${out}" | grep -q "^test result: ok. 1 passed; 0 failed; 0 ignored"; then
  echo "${out}"
  echo "the certificate proptest did not run whole (expected 1 passed, 0 ignored)" >&2
  exit 1
fi

# The same crate once more as it ships: optimized codegen is what serves
# and trains, and `debug_assert!` is compiled out there, so this is the
# run in which the stamped kernels' length checks (`assert_eq!`, with
# `#[should_panic]` cases per signature shape) can fail.
echo "==> vsan-tensor unit tests, release profile"
cargo test -q --offline --release -p vsan-tensor --lib

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

# Instrumented smoke pass: trains and serves with full telemetry
# attached, then validates the JSONL streams (fails on zero events,
# any record that does not parse, a flight-recorder trace graph whose
# spans do not all resolve to an admission root, or a live Prometheus
# scrape whose body does not round-trip through the parser).
echo "==> obs_smoke (instrumented train + serve telemetry)"
cargo run --release --offline -q -p vsan-bench --bin obs_smoke

# The §IV-F complexity table (results/complexity.txt at --scale repro)
# must still build and run: at smoke scale it takes a few seconds. It
# writes no file, and its timings are discarded here.
echo "==> complexity table runs (--scale smoke)"
cargo run --release --offline -q -p vsan-bench --bin complexity -- --scale smoke >/dev/null

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
