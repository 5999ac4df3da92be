#!/usr/bin/env bash
# The benchmark's one command. Builds the `vsan-benchmark` binary from
# source (offline, into $CARGO_TARGET_DIR, default <repo>/target) and
# runs it with the arguments given:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --smoke              every workload at toy sizes, schema check
#   benchmark/run.sh --all                every workload, untraced then traced
#   benchmark/run.sh --aa [--seed <n>]    the suite twice on one build, against the bounds
#   benchmark/run.sh --spread [--runs n]  n seeds per workload, quartile spread per metric
#
# Run it from anywhere; it changes into the repository root, which is
# where BENCHMARK.json is read and benchmark/out/ is written.
set -euo pipefail

invoked_from="$PWD"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# A relative CARGO_TARGET_DIR means relative to where the caller stood.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$invoked_from/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo reads profiles only from the workspace root being built, so
# benchmark/Cargo.toml repeats the repository's [profile.release]. A
# benchmark built with other settings than the program measures nothing
# comparable: refuse to run if the two blocks differ.
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "run.sh: $root holds no Cargo.toml and crates/: the benchmark builds the repository from source" >&2
  exit 2
fi
release_profile() {
  awk '/^\[profile\.release\]/ { on = 1; next } /^\[/ { on = 0 } on && NF && $1 !~ /^#/' "$1" | tr -d ' ' | sort
}
if [ "$(release_profile Cargo.toml)" != "$(release_profile benchmark/Cargo.toml)" ]; then
  echo "run.sh: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
  exit 2
fi

cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml >&2

# Host fingerprint lines the binary cannot know by itself.
export VSAN_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
if git rev-parse --git-dir >/dev/null 2>&1; then
  export VSAN_BENCH_GIT_COMMIT="$(git rev-parse --short HEAD)"
  if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    export VSAN_BENCH_GIT_DIRTY=true
  else
    export VSAN_BENCH_GIT_DIRTY=false
  fi
fi

exec "$target/release/vsan-benchmark" "$@"
