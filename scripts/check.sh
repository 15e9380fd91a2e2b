#!/usr/bin/env bash
# Repo-wide gate: formatting, lints and rustdoc (warnings are errors),
# release build and the full test suite. Run before pushing; CI runs the
# same steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (-D warnings: no broken or ambiguous intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace (every crate's unit, integration and doc tests)"
# One run covers every gated invariant:
# - bit-exactness: the float GEMM and the conv forward and gradients
#   against naive loops (csq-tensor gemm::, kernel_equivalence,
#   kernel_equivalence_prop), the integer kernels (csq-core
#   integer_kernels), the served model's forward_batch at 1 and 4
#   threads and against single samples (csq-serve serve_end_to_end),
#   training at 1 and 4 threads (parallel_determinism), and crash
#   resume in both training phases (failure_injection);
# - serve chaos: deterministic fault drills (serve_chaos);
# - fleet chaos: kills a whole replica group under two-tenant load
#   (in-flight requests must drain with answers, later submissions fail
#   fast with typed ModelDown, the sibling model stays bit-exact,
#   redeploy recovers), and corrupts the newest registry artifact on
#   disk (the scan must record a typed fault and fall back to the newest
#   healthy version); any hang, panic, or cross-model contamination
#   fails (fleet_chaos, fleet_end_to_end);
# - decoders: a committed .csqm payload and a training snapshot are each
#   damaged 256 ways (bit flips, truncations, numeric fields set to 0,
#   -1 and 2^40) and re-framed with a valid checksum; loading and then
#   compiling or restoring must give Ok or a typed error, and a panic
#   prints the seed that replays it (csqm_fuzz).
cargo test -q --workspace

echo "==> flight-recorder chaos drill (postmortem must be well-formed JSONL)"
postmortem_dir="$(mktemp -d)"
fixtures_dir="$(mktemp -d)"
trap 'rm -rf "$postmortem_dir" "$fixtures_dir"' EXIT
CSQ_POSTMORTEM_DIR="$postmortem_dir" cargo test -q --test serve_chaos \
  flight_recorder_postmortem_names_worker_trace_ids_and_restart
dumps=("$postmortem_dir"/postmortem-*.jsonl)
[ -e "${dumps[0]}" ] || { echo "FAIL: chaos drill produced no postmortem dump"; exit 1; }
for dump in "${dumps[@]}"; do
  if grep -qv '^{' "$dump"; then
    echo "FAIL: $dump contains a non-JSON line"
    exit 1
  fi
done
echo "    $(ls "$postmortem_dir" | wc -l) postmortem dump(s), all well-formed"

echo "==> serve smoke (perfbench serve_closed, every answer checked bit for bit)"
# The closed loop, the exec probe and the four-model fleet probe check
# every answer against its single-sample reference; the run writes
# nothing under bench_results/.
python3 perfbench/run.py --workload serve_closed --seed 1 --seconds 4 --trace 1 \
  | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
print("    correct=%s attempted=%s failed=%s" % (r["correct"], r["attempted"], r["failed"]))
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else "FAIL: serve smoke")'

echo "==> fixture export smoke (artifacts bin, in a temporary directory)"
# Trains the CSQ model and the 8/4/3/2-bit sweep at a tiny scale, saves
# and reloads each .csqm and scans the rebuilt registry; the committed
# fixtures under bench_results/ are left alone.
cargo build --release -p csq-bench --bin artifacts
artifacts_bin="$PWD/target/release/artifacts"
(cd "$fixtures_dir" && CSQ_EPOCHS=1 CSQ_TRAIN_PER_CLASS=2 CSQ_TEST_PER_CLASS=2 CSQ_WIDTH=4 \
  "$artifacts_bin")

echo "All checks passed."
