#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, and the full test suite.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo doc -D warnings (broken and private intra-doc links fail the gate)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> perfbench build (its own workspace, so --workspace never compiles it) and 1 s zoo_sim and tune_large runs"
cargo build --release --manifest-path perfbench/Cargo.toml
# Every zoo_sim cell digest-checks its lint report, prediction,
# simulation, memory ledger and counter against perfbench/golden.json in
# a release build; the last line must report "correct": true.
rc=0; ./perfbench/target/release/perfbench --workload zoo_sim --seed 1 --seconds 1 --trace 0 \
  > /tmp/perfbench-zoo.json || rc=$?
tail -n 1 /tmp/perfbench-zoo.json | grep -q '"correct": true' \
  || { echo "perfbench zoo_sim: a cell failed its checks or its golden digest (exit $rc)"; exit 1; }
rm -f /tmp/perfbench-zoo.json
# Every tune_large instance digest-checks its tuned result (makespans,
# trajectory, certificate) against perfbench/golden.json.
rc=0; ./perfbench/target/release/perfbench --workload tune_large --seed 1 --seconds 1 --trace 0 \
  > /tmp/perfbench-tune.json || rc=$?
tail -n 1 /tmp/perfbench-tune.json | grep -q '"correct": true' \
  || { echo "perfbench tune_large: an instance failed its checks or its golden digest (exit $rc)"; exit 1; }
rm -f /tmp/perfbench-tune.json

echo "==> figures snapshot (every table and figure reproduces docs/figures_snapshot.txt byte for byte)"
cargo build -q --release -p ooo-bench --bin figures
./target/release/figures | cmp - docs/figures_snapshot.txt \
  || { echo "figures: output differs from docs/figures_snapshot.txt"; exit 1; }

echo "==> ooo-chaos smoke campaign (determinism + invariants)"
cargo build -q -p ooo-faults --bin ooo-chaos
./target/debug/ooo-chaos run --seed 42 --scenarios 5 --json --out /tmp/ooo-chaos-a.json
./target/debug/ooo-chaos run --seed 42 --scenarios 5 --json --out /tmp/ooo-chaos-b.json
cmp /tmp/ooo-chaos-a.json /tmp/ooo-chaos-b.json \
  || { echo "ooo-chaos: same seed produced different reports"; exit 1; }
rm -f /tmp/ooo-chaos-a.json /tmp/ooo-chaos-b.json

echo "==> ooo-trace smoke (a strategy's label and its wire name name the same run)"
cargo build -q --release -p ooo-cluster --bin ooo-trace
./target/release/ooo-trace export --system pipeline --strategy pipe2 --out /tmp/ooo-trace-wire.json
./target/release/ooo-trace export --system pipeline --strategy ooo-pipe2 --out /tmp/ooo-trace-label.json
cmp /tmp/ooo-trace-wire.json /tmp/ooo-trace-label.json \
  || { echo "ooo-trace: --strategy pipe2 and --strategy ooo-pipe2 exported different traces"; exit 1; }
rm -f /tmp/ooo-trace-wire.json /tmp/ooo-trace-label.json

echo "==> ooo-advise smoke (exit-code contract + determinism)"
cargo build -q -p ooo-verify --bin ooo-advise
rc=0; ./target/debug/ooo-advise pipeline --layers 8 --devices 2 --strategy pipe2 || rc=$?
[ "$rc" -eq 0 ] || { echo "ooo-advise: OOO-Pipe2 should be advisory-free (got $rc)"; exit 1; }
rc=0; ./target/debug/ooo-advise pipeline --layers 8 --devices 2 --strategy gpipe || rc=$?
[ "$rc" -eq 1 ] || { echo "ooo-advise: GPipe should draw OP401 (got $rc)"; exit 1; }
rc=0; ./target/debug/ooo-advise pipeline --layers 8 --devices 2 --strategy gpipe --json --out /tmp/ooo-advise-a.json || rc=$?
[ "$rc" -eq 1 ] || { echo "ooo-advise: unexpected exit $rc"; exit 1; }
rc=0; ./target/debug/ooo-advise pipeline --layers 8 --devices 2 --strategy gpipe --json --out /tmp/ooo-advise-b.json || rc=$?
[ "$rc" -eq 1 ] || { echo "ooo-advise: unexpected exit $rc"; exit 1; }
cmp /tmp/ooo-advise-a.json /tmp/ooo-advise-b.json \
  || { echo "ooo-advise: same configuration produced different reports"; exit 1; }
rm -f /tmp/ooo-advise-a.json /tmp/ooo-advise-b.json

echo "==> ooo-tune smoke (known-improvable input + determinism)"
cargo build -q -p ooo-tune --bin ooo-tune
rc=0; ./target/debug/ooo-tune order --layers 8 --k 0 --sync 3 --json --out /tmp/ooo-tune-a.json || rc=$?
[ "$rc" -eq 0 ] || { echo "ooo-tune: tuning a safe order should succeed (got $rc)"; exit 1; }
grep -q '"improved": true' /tmp/ooo-tune-a.json \
  || { echo "ooo-tune: depth-0 under sync=3 should tune strictly better"; exit 1; }
rc=0; ./target/debug/ooo-tune order --layers 8 --k 0 --sync 3 --json --out /tmp/ooo-tune-b.json || rc=$?
[ "$rc" -eq 0 ] || { echo "ooo-tune: unexpected exit $rc"; exit 1; }
cmp /tmp/ooo-tune-a.json /tmp/ooo-tune-b.json \
  || { echo "ooo-tune: same input produced different reports"; exit 1; }
rm -f /tmp/ooo-tune-a.json /tmp/ooo-tune-b.json
rc=0; ./target/debug/ooo-tune order --layers 8 --k 0 --sync 3 \
  --memory-cap 999999999 --json --out /tmp/ooo-tune-cap.json || rc=$?
[ "$rc" -eq 0 ] || { echo "ooo-tune: capped tune of a safe order should succeed (got $rc)"; exit 1; }
grep -q '"cap_met": true' /tmp/ooo-tune-cap.json \
  || { echo "ooo-tune: a generous memory cap should be reported met"; exit 1; }
rm -f /tmp/ooo-tune-cap.json
# A binding cap (the heuristic's own ledger peak, which the uncapped tune
# exceeds), a cap between the 32-layer order's carried-in floor (32) and
# its peak (35), where every candidate's peak is read off its closed-form
# op times, a 48-layer order whose link serves first-come-first-served,
# where every relocation resumes the incumbent's link plan under that
# policy, and a capless pipeline tune, each run twice with parallel
# restart threads: the lazily scored candidates must give the same bytes.
for args in "order --layers 12 --k 0 --sync 3 --memory-cap 15" \
            "order --layers 32 --k 0 --sync 3 --memory-cap 34" \
            "order --layers 48 --k 0 --sync 3 --policy fifo" \
            "pipeline --strategy gpipe --layers 16 --devices 4"; do
  for run in a b; do
    start=$(date +%s%N)
    rc=0; ./target/debug/ooo-tune $args --restarts 3 --json --out /tmp/ooo-tune-$run.json > /dev/null || rc=$?
    echo "ooo-tune $args (debug build): $(( ($(date +%s%N) - start) / 1000000 )) ms"
    [ "$rc" -eq 0 ] || { echo "ooo-tune $args: unexpected exit $rc"; exit 1; }
  done
  cmp /tmp/ooo-tune-a.json /tmp/ooo-tune-b.json \
    || { echo "ooo-tune $args: parallel restarts produced different reports"; exit 1; }
  case "$args" in
    *"memory-cap 15") grep -q '"cap_met": true' /tmp/ooo-tune-a.json \
      || { echo "ooo-tune $args: the binding cap should still be met"; exit 1; } ;;
    *"memory-cap 34") cmp /tmp/ooo-tune-a.json tests/fixtures/cli_golden/tune_order_sweep_cap.json \
      || { echo "ooo-tune $args: differs from its golden"; exit 1; } ;;
    *"policy fifo") cmp /tmp/ooo-tune-a.json tests/fixtures/cli_golden/tune_order_48_fifo.json \
      || { echo "ooo-tune $args: differs from its golden"; exit 1; } ;;
  esac
done
rm -f /tmp/ooo-tune-a.json /tmp/ooo-tune-b.json

echo "==> ooo-memcheck smoke (exit-code contract + determinism)"
cargo build -q -p ooo-verify --bin ooo-memcheck
rc=0; ./target/debug/ooo-memcheck order --layers 6 --k 2 || rc=$?
[ "$rc" -eq 0 ] || { echo "ooo-memcheck: an uncapped clean order should draw no findings (got $rc)"; exit 1; }
rc=0; ./target/debug/ooo-memcheck order --layers 6 --k 2 --budget 1 --json --out /tmp/ooo-memcheck-a.json || rc=$?
[ "$rc" -eq 1 ] || { echo "ooo-memcheck: a one-byte budget should draw OM301 (got $rc)"; exit 1; }
grep -q '"OM301"' /tmp/ooo-memcheck-a.json \
  || { echo "ooo-memcheck: over-budget finding should carry rule OM301"; exit 1; }
rc=0; ./target/debug/ooo-memcheck order --layers 6 --k 2 --budget 1 --json --out /tmp/ooo-memcheck-b.json || rc=$?
[ "$rc" -eq 1 ] || { echo "ooo-memcheck: unexpected exit $rc"; exit 1; }
cmp /tmp/ooo-memcheck-a.json /tmp/ooo-memcheck-b.json \
  || { echo "ooo-memcheck: same configuration produced different reports"; exit 1; }
rm -f /tmp/ooo-memcheck-a.json /tmp/ooo-memcheck-b.json

echo "==> ooo-cert smoke (exact certification + determinism)"
cargo build -q -p ooo-cert --bin ooo-cert
rc=0; ./target/debug/ooo-cert order --layers 3 --k 0 --sync 0 --json --out /tmp/ooo-cert-a.json || rc=$?
[ "$rc" -eq 0 ] || { echo "ooo-cert: sync-free order should certify optimal (got $rc)"; exit 1; }
grep -q '"status": "optimal"' /tmp/ooo-cert-a.json \
  || { echo "ooo-cert: sync-free conventional realization should be optimal"; exit 1; }
rc=0; ./target/debug/ooo-cert order --layers 3 --k 0 --sync 2 --json --out /tmp/ooo-cert-b.json || rc=$?
[ "$rc" -eq 1 ] || { echo "ooo-cert: eager order under sync=2 should be improvable (got $rc)"; exit 1; }
rc=0; ./target/debug/ooo-cert order --layers 3 --k 0 --sync 2 --json --out /tmp/ooo-cert-c.json || rc=$?
[ "$rc" -eq 1 ] || { echo "ooo-cert: unexpected exit $rc"; exit 1; }
cmp /tmp/ooo-cert-b.json /tmp/ooo-cert-c.json \
  || { echo "ooo-cert: same instance produced different certificates"; exit 1; }
rm -f /tmp/ooo-cert-a.json /tmp/ooo-cert-b.json /tmp/ooo-cert-c.json

echo "==> ooo-serve smoke (oneshot contract, daemon determinism, crash recovery)"
cargo build -q -p ooo-serve --bin ooo-serve
rc=0; printf '{"id":1,"cmd":"order","layers":4,"tier":"heuristic"}\n' \
  | ./target/debug/ooo-serve --oneshot > /tmp/ooo-serve-one.json || rc=$?
[ "$rc" -eq 0 ] || { echo "ooo-serve: oneshot order should succeed (got $rc)"; exit 1; }
grep -q '"status":"ok"' /tmp/ooo-serve-one.json \
  || { echo "ooo-serve: oneshot order should answer ok"; exit 1; }
cat > /tmp/ooo-serve-req.jsonl <<'EOF'
{"id":1,"cmd":"order","layers":5,"k":1,"sync":3,"tier":"greedy"}
{"id":2,"cmd":"order","layers":5,"k":1,"sync":3,"tier":"greedy"}
{"id":3,"cmd":"cert","layers":3,"k":0,"sync":2}
{"id":4,"cmd":"pipeline","layers":4,"devices":2,"strategy":"pipe2","tier":"heuristic"}
not json at all
{"id":5,"cmd":"order","layers":4,"timeout_ms":0}
{"id":6,"cmd":"stats"}
EOF
# The daemon exits 0 whenever it serves the whole stream; per-request
# failures live in the responses (oneshot is the mode with CLI exits).
./target/debug/ooo-serve --daemon < /tmp/ooo-serve-req.jsonl > /tmp/ooo-serve-a.jsonl \
  || { echo "ooo-serve: daemon should survive hostile+timeout traffic"; exit 1; }
[ "$(wc -l < /tmp/ooo-serve-a.jsonl)" -eq 7 ] \
  || { echo "ooo-serve: expected one response per request line"; exit 1; }
grep -q '"status":"error"' /tmp/ooo-serve-a.jsonl \
  || { echo "ooo-serve: hostile line should draw a structured error"; exit 1; }
grep -q '"status":"timeout"' /tmp/ooo-serve-a.jsonl \
  || { echo "ooo-serve: expired deadline should answer timeout"; exit 1; }
./target/debug/ooo-serve --daemon < /tmp/ooo-serve-req.jsonl > /tmp/ooo-serve-b.jsonl \
  || { echo "ooo-serve: unexpected daemon failure"; exit 1; }
cmp /tmp/ooo-serve-a.jsonl /tmp/ooo-serve-b.jsonl \
  || { echo "ooo-serve: same traffic produced different response streams"; exit 1; }
cat > /tmp/ooo-serve-kill.jsonl <<'EOF'
{"id":"k1","cmd":"order","layers":3,"tier":"heuristic","fault":"kill"}
{"id":"k2","cmd":"order","layers":3,"tier":"heuristic","fault":"kill"}
{"id":"n1","cmd":"order","layers":4,"tier":"heuristic"}
{"id":"n2","cmd":"order","layers":5,"tier":"heuristic"}
EOF
rc=0; ./target/debug/ooo-serve --daemon < /tmp/ooo-serve-kill.jsonl > /tmp/ooo-serve-k.jsonl || rc=$?
[ "$rc" -eq 0 ] || { echo "ooo-serve: kill directives must not take the daemon down (got $rc)"; exit 1; }
[ "$(wc -l < /tmp/ooo-serve-k.jsonl)" -eq 4 ] \
  || { echo "ooo-serve: crash recovery lost responses"; exit 1; }
rm -f /tmp/ooo-serve-one.json /tmp/ooo-serve-req.jsonl /tmp/ooo-serve-a.jsonl \
  /tmp/ooo-serve-b.jsonl /tmp/ooo-serve-kill.jsonl /tmp/ooo-serve-k.jsonl

echo "==> ooo-tune release smoke (1000-stage windowed search, the tune_large sizes and accepted regroups, golden output)"
cargo build -q --release -p ooo-tune --bin ooo-tune
start=$(date +%s%N)
rc=0; ./target/release/ooo-tune pipeline --layers 1000 --devices 8 --strategy pipe2 \
  --restarts 0 --window 4 --json --out /tmp/ooo-tune-scale.json || rc=$?
echo "1000-stage tune: $(( ($(date +%s%N) - start) / 1000000 )) ms"
[ "$rc" -eq 0 ] || { echo "ooo-tune: 1000-stage pipeline tune failed (got $rc)"; exit 1; }
cmp /tmp/ooo-tune-scale.json tests/fixtures/cli_golden/tune_pipeline_pipe2_1000.json \
  || { echo "ooo-tune: 1000-stage tune differs from its golden"; exit 1; }
# The perfbench tune_large sizes (full neighbourhoods, parallel restarts),
# gpipe 48x8 under a cap below its carried-in floor, megatron 32x4,
# and two tunes that accept a regroup: each wall time is printed, and
# each output must equal its golden.
for run in "tune_order_48.json:order --layers 48 --k 0 --sync 3" \
  "tune_pipeline_gpipe_48x8.json:pipeline --layers 48 --devices 8 --strategy gpipe" \
  "tune_pipeline_pipe2_128x8_w4.json:pipeline --layers 128 --devices 8 --strategy pipe2 --window 4" \
  "tune_pipeline_gpipe_48x8_cap.json:pipeline --layers 48 --devices 8 --strategy gpipe --memory-cap 1" \
  "tune_pipeline_megatron_32x4.json:pipeline --layers 32 --devices 4 --strategy megatron" \
  "tune_pipeline_pipe2_regroup.json:pipeline --layers 16 --devices 4 --strategy pipe2 --group 3" \
  "tune_pipeline_pipe2_regroup_w4.json:pipeline --layers 24 --devices 4 --strategy pipe2 --group 3 --window 4"; do
  fixture=${run%%:*}; args=${run#*:}
  start=$(date +%s%N)
  rc=0; ./target/release/ooo-tune $args --json --out /tmp/ooo-tune-scale.json || rc=$?
  echo "ooo-tune $args: $(( ($(date +%s%N) - start) / 1000000 )) ms"
  [ "$rc" -eq 0 ] || { echo "ooo-tune $args failed (got $rc)"; exit 1; }
  cmp /tmp/ooo-tune-scale.json "tests/fixtures/cli_golden/$fixture" \
    || { echo "ooo-tune $args differs from its golden"; exit 1; }
done
rm -f /tmp/ooo-tune-scale.json

echo "==> flag limits (an instance size above its limit exits 2 at once, naming the limit)"
cargo build -q --release -p ooo-faults --bin ooo-chaos
for run in "ooo-tune:order --layers 4097:--layers: 4097 is above the limit of 4096" \
  "ooo-chaos:list --scenarios 65537:--scenarios: 65537 is above the limit of 65536" \
  "ooo-trace:summarize --system single --batch 1000000000000:--batch: 1000000000000 is above the limit of 1048576"; do
  tool=${run%%:*}; rest=${run#*:}; args=${rest%%:*}; want=${rest#*:}
  rc=0; timeout 10 "./target/release/$tool" $args > /dev/null 2> /tmp/ooo-limit.err || rc=$?
  [ "$rc" -eq 2 ] || { echo "$tool $args: expected exit 2 (got $rc)"; exit 1; }
  grep -qF -- "$want" /tmp/ooo-limit.err \
    || { echo "$tool $args: stderr does not name the limit"; cat /tmp/ooo-limit.err; exit 1; }
done
rm -f /tmp/ooo-limit.err

echo "All checks passed."
