#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build and the full test suite.
# Mirrors .github/workflows/ci.yml so the same checks run locally with
# no network access (all dependencies are vendored in compat/).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (root package, tier-1) =="
cargo test -q

echo "== cargo test --workspace =="
cargo test --workspace -q

echo "== chaos drill (crash-safety smoke) =="
cargo run --release -p plp-bench --bin chaos

echo "== swap_chaos drill (hot-swap serving: torn writers, corrupt candidates, hammer) =="
cargo run --release -p plp-bench --bin swap_chaos -- --smoke

echo "== fed_chaos drill (multi-process federated smoke + traced round) =="
cargo run --release -p plp-bench --bin fed_chaos -- --smoke \
  --trace-out target/BENCH_fed_trace.json

echo "== trace stitcher (offline re-stitch of the fed_chaos dumps) =="
cargo run --release -p plp-bench --bin trace_stitch -- \
  --out target/BENCH_fed_trace_restitched.json target/fed_trace_dumps
# Re-stitching the raw dumps offline must reproduce the drill's trace.
python3 - target/BENCH_fed_trace.json target/BENCH_fed_trace_restitched.json <<'PY'
import json, sys
def sig(path):
    t = json.load(open(path))
    return sorted(
        (e.get("ph"), e.get("name"), e.get("pid"), e.get("ts"), e.get("dur"))
        for e in t["traceEvents"]
    )
assert sig(sys.argv[1]) == sig(sys.argv[2]), "offline stitcher diverged from fed_chaos"
print("stitchers agree")
PY

echo "== serve load-generator smoke (batched == sequential, ANN cross-check, hot-swap) =="
cargo run --release -p plp-bench --bin serve_load -- --smoke --swap --out target/BENCH_serve_smoke.json

echo "== bench guard (ANN recall@10 floor) =="
python3 scripts/bench_guard.py --serve target/BENCH_serve_smoke.json 0.95

echo "== bench guard (hot-swap: zero dropped/torn + mmap load floor) =="
# The smoke run swaps 12 generations; the committed full-run report is
# held to the 50-swap / 10x-mmap acceptance floors.
python3 scripts/bench_guard.py --swap target/BENCH_serve_smoke.json 12 10
python3 scripts/bench_guard.py --swap BENCH_serve.json 50 10

echo "== training-throughput smoke (thread-count invariance) =="
cargo run --release -p plp-bench --bin train_throughput -- --smoke \
  --out target/BENCH_train_smoke.json

echo "== bench guard (noise+server_update share threshold) =="
python3 scripts/bench_guard.py target/BENCH_train_smoke.json 0.35

echo "== bench guard (train: steps/sec floor + local_sgd share ceiling) =="
# The smoke run gets a lenient floor (its steps/sec depend on the host);
# the committed full-run report is held to the recorded acceptance floor.
python3 scripts/bench_guard.py --train target/BENCH_train_smoke.json 5 0.65
python3 scripts/bench_guard.py --train BENCH_train.json 35.9 0.65

echo "== observability smoke (phase spans, budget gauge, JSONL log) =="
cargo run --release -p plp-bench --bin obs_report -- --smoke \
  --out target/BENCH_obs_smoke.json --log target/BENCH_obs_events.jsonl
# The report asserts the log parses, but belt-and-braces: every line must
# be a JSON object.
python3 - target/BENCH_obs_events.jsonl <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    lines = [l for l in f.read().splitlines() if l]
for i, line in enumerate(lines):
    event = json.loads(line)
    assert isinstance(event, dict) and "kind" in event, f"line {i}: {line!r}"
print(f"event log OK ({len(lines)} events)")
PY

echo "== bench guard (tracing overhead ceiling) =="
python3 scripts/bench_guard.py --obs target/BENCH_obs_smoke.json 0.05

echo "CI checks passed."
