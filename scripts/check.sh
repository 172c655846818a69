#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every change.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release
cargo build --release -p fusion3d-lint
cargo test --workspace -q
# Repo-specific invariants (determinism, panic-freedom, allocation-
# freedom of the hot path): exit 0 = clean, 1 = any finding, 2 =
# harness error. Fix the code or add a reasoned
# `// lint: allow(rule): why`.
cargo run --release -q -p fusion3d-lint
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
# Docs are tier-1 too: broken intra-doc links or missing crate docs
# fail the build, and every doc example must keep compiling + passing.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
cargo test --workspace --doc -q
# The obs feature is off by default (probes compile out); make sure the
# instrumented build stays green too.
cargo test -q -p fusion3d-nerf --features obs
# Keep the throughput harness runnable; the smoke run takes ~a second
# and writes its report under target/ (full runs write BENCH_perf.json).
cargo run --release -q -p fusion3d-bench --bin perf -- --smoke --out target/BENCH_perf_smoke.json
# Experiment dispatcher: one table runs by name, and an unknown name
# must fail rather than silently run nothing.
cargo run --release -q -p fusion3d-bench --bin experiments -- table1 > /dev/null
if cargo run --release -q -p fusion3d-bench --bin experiments -- no-such-table 2> /dev/null; then
  echo "experiments accepted an unknown experiment name"; exit 1
fi
# The CLI's multi-chip path (gate partition, per-chip traces, system
# simulation) has no test of its own: run it and require its line.
cargo run --release -q --bin fusion3d -- simulate --scene lego --multichip > target/simulate_multichip.txt
grep -q "multi-chip (4 chips)" target/simulate_multichip.txt \
  || { echo "simulate --multichip printed no multi-chip line"; exit 1; }
# Serving harness smoke: run the same short trace at 1 and 4 kernel
# workers and hold the reports byte-identical (the serve determinism
# contract, docs/SERVING.md), then assert the schema keys are present.
cargo run --release -q -p fusion3d-bench --bin serve -- --smoke --threads 1 --out target/BENCH_serve_smoke.json > /dev/null
cargo run --release -q -p fusion3d-bench --bin serve -- --smoke --threads 4 --out target/BENCH_serve_smoke_t4.json > /dev/null
cmp target/BENCH_serve_smoke.json target/BENCH_serve_smoke_t4.json \
  || { echo "BENCH_serve smoke diverges between 1 and 4 threads"; exit 1; }
for key in '"schema": "fusion3d-serve-v1"' p50_latency_cycles p99_latency_cycles \
           throughput_rps hit_rate response_checksum scene_table; do
  grep -q "$key" target/BENCH_serve_smoke.json \
    || { echo "BENCH_serve smoke missing key: $key"; exit 1; }
done
# The host benchmark (hostbench/) is a Cargo workspace of its own, so
# the workspace runs above never build it; its tests build it against
# the crates' current APIs and smoke-run every job.
cargo test --offline -q --manifest-path hostbench/Cargo.toml
# Docs must not rot: every relative link in the Markdown tree resolves.
./scripts/check_doc_links.sh
echo "All tier-1 checks passed."
