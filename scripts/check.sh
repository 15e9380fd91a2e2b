#!/usr/bin/env bash
# Repo-wide gate: formatting, lints and rustdoc (warnings are errors),
# release build and the full test suite. Run before pushing; CI runs the
# same steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings, every unsafe block documented)"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks

echo "==> cargo doc (-D warnings: no broken or ambiguous intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace (every crate's unit, integration and doc tests)"
# One run covers every gated invariant:
# - bit-exactness: the float GEMM and the conv forward and gradients
#   against naive loops (csq-tensor gemm::, kernel_equivalence,
#   kernel_equivalence_prop), the compiled integer ops on signed
#   activation codes (csq-core integer_kernels; its conv sweep must meet
#   a lane tail, a depthwise block, lanes spanning groups with
#   1 < OC/G < 8, an odd channel count per group, a short 8-position
#   strip, a 1x1 stride-2 conv and the served 3x3 convs at 8, 16 and 32
#   channels; the kernel's AVX2 and portable bodies agree in csq-core
#   qinfer::, and the codes of non-negative inputs equal the unsigned
#   grid's there and their steps in csq-serve calibrate::), the served
#   model's forward_batch at 1 and 4 threads and against single samples
#   (csq-serve serve_end_to_end),
#   training at 1 and 4 threads (parallel_determinism), and crash
#   resume in both training phases (failure_injection);
# - integer-only serving: every weighted op of the served ResNets and of
#   a MobileNetV2 runs the integer kernel, and on 200 held-out images a
#   ResNet-20's and the MobileNetV2's served labels stay within 5 points
#   of forward_float's accuracy and agree with its argmax on 80% or more
#   (csq-serve serve_end_to_end);
# - serve chaos: deterministic fault drills (serve_chaos);
# - fleet chaos: kills a whole replica group under two-tenant load
#   (in-flight requests must drain with answers, later submissions fail
#   fast with typed ModelDown, the sibling model stays bit-exact,
#   redeploy recovers), and corrupts the newest registry artifact on
#   disk (the scan must record a typed fault and fall back to the newest
#   healthy version); any hang, panic, or cross-model contamination
#   fails (fleet_chaos, fleet_end_to_end);
# - decoders and the compile-time shape walk: a committed .csqm payload
#   and a training snapshot are each damaged 256 ways (bit flips,
#   truncations, numeric fields set to 0, -1 and 2^40) and re-framed
#   with a valid checksum, and the decoded .csqm plan is restructured
#   256 ways (ops removed, duplicated or swapped at any depth, a bias,
#   scale or shift value dropped, a channel, feature or class count or
#   an input dim moved by one); loading and then compiling or restoring
#   must give Ok or a typed error, every .csqm that compiles must answer
#   forward_batch and forward_float with Ok, finite logits of width
#   num_classes (two fixed cases, a calibration step of 0 and residual
#   branches of different sizes, must fail to load or compile and name
#   the op), and a panic prints the seed that replays it (csqm_fuzz);
#   hand-built plans whose shapes do not fit, or that hold a calibration
#   step, act-quant range or padding the decoders refuse, must each fail
#   compile with an error naming the op, and a weight code past +-32767
#   must fail it naming the weight, read by an op or not (csq-serve
#   artifact::tests).
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

# A 4-second traced perfbench run of workload $1: its result line must
# read correct, 0 failed, and a kernel plan with every weighted op on the
# integer kernel. The run writes nothing under bench_results/.
perfbench_smoke() {
  python3 perfbench/run.py --workload "$1" --seed 1 --seconds 4 --trace 1 \
    | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
ops = {c: r["metrics"]["csq_serve.exec.%s_ops" % c]["value"] for c in ("integer", "float")}
print("    correct=%s attempted=%s failed=%s integer_ops=%s float_ops=%s"
      % (r["correct"], r["attempted"], r["failed"], ops["integer"], ops["float"]))
ok = r["correct"] is True and r["failed"] == 0 and ops["float"] == 0 and ops["integer"] > 0
sys.exit(0 if ok else "FAIL: %s smoke" % sys.argv[1])' "$1"
}

echo "==> serve smoke (perfbench serve_closed, every answer checked bit for bit)"
# The closed loop, the exec probe and the four-model fleet probe check
# every answer against its single-sample reference.
perfbench_smoke serve_closed

echo "==> train smoke (perfbench train, then a fresh model served)"
# Trains, exports, compiles, saves and rescans a fresh model, then checks
# its batch-1 and batch-8 forward_batch against single-sample references:
# the compiled integer ops on a model that is not a committed fixture.
perfbench_smoke train

echo "==> integer inference example (a signed stem conv on the integer kernel)"
cargo run --release --example integer_inference

echo "==> fixture export smoke (artifacts bin, in a temporary directory)"
# Trains the CSQ model and the 8/4/3/2-bit sweep at a tiny scale, saves
# and reloads each .csqm and scans the rebuilt registry; the committed
# fixtures under bench_results/ are left alone.
cargo build --release -p csq-bench --bin artifacts
artifacts_bin="$PWD/target/release/artifacts"
(cd "$fixtures_dir" && CSQ_EPOCHS=1 CSQ_TRAIN_PER_CLASS=2 CSQ_TEST_PER_CLASS=2 CSQ_WIDTH=4 \
  "$artifacts_bin")

echo "All checks passed."
