#!/usr/bin/env bash
# End-to-end smoke test of the mariohd daemon (run by `make smoke` and the
# CI server-smoke job):
#
#   1. build mariohd + mariohctl
#   2. produce a golden reconstruction through the CLI (library path)
#   3. boot mariohd on a random port, poll /healthz
#   4. push the model and reconstruct the same target through the server;
#      the output must be byte-identical to the golden run
#   5. reconstruct again as a queued job (-async, polled to completion):
#      still byte-identical to the golden run
#   6. replay a delta stream through a durable server-side session, then
#      kill -9 the daemon, restart it over the same -data-dir, resume the
#      session and require byte-identical output (WAL crash recovery)
#   7. SIGTERM the daemon with a job in flight: it must drain and exit 0
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
work=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$bin" "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$bin/mariohd" ./cmd/mariohd
go build -o "$bin/mariohctl" ./cmd/mariohctl
go build -o "$bin/datagen" ./cmd/datagen

echo "== golden run (CLI / library path)"
"$bin/mariohctl" gen -dataset hosts -seed 1 -out "$work"
"$bin/mariohctl" train -train "$work/hosts.source.hg" -seed 1 -epochs 15 -out "$work/model.json"
"$bin/mariohctl" apply -model "$work/model.json" -target "$work/hosts.target.graph" -seed 1 -out "$work/golden.hg"

echo "== boot mariohd"
"$bin/mariohd" -addr 127.0.0.1:0 -workers 2 -models-dir "$work/models" -data-dir "$work/data" >"$work/mariohd.log" 2>&1 &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \(.*\)/\1/p' "$work/mariohd.log" | head -1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "mariohd never reported its address"; cat "$work/mariohd.log"; exit 1
fi
base="http://$addr"
echo "   $base"

echo "== healthz"
ok=""
for _ in $(seq 1 50); do
    if curl -fsS "$base/healthz" >"$work/health.json" 2>/dev/null; then ok=1; break; fi
    sleep 0.1
done
[ -n "$ok" ] || { echo "healthz never came up"; cat "$work/mariohd.log"; exit 1; }
grep -q '"status":"ok"' "$work/health.json"

echo "== /v1/reconstruct round-trip (byte-identical to the golden run)"
"$bin/mariohctl" push-model -server "$base" -name smoke -model "$work/model.json"
"$bin/mariohctl" remote-reconstruct -server "$base" -model smoke \
    -target "$work/hosts.target.graph" -seed 1 -out "$work/server.hg"
cmp "$work/golden.hg" "$work/server.hg"
echo "   server output is byte-identical to the CLI golden run"

curl -fsS "$base/metrics" | grep -q 'marioh_requests_total'

echo "== queued /v1/reconstruct (byte-identical)"
"$bin/mariohctl" remote-reconstruct -server "$base" -model smoke \
    -target "$work/hosts.target.graph" -seed 1 -async -out "$work/server-async.hg"
cmp "$work/golden.hg" "$work/server-async.hg"
echo "   queued job output is byte-identical to the CLI golden run"

echo "== incremental session over /v1/sessions (byte-identical after deltas)"
# A reproducible delta stream against the same reduced target graph, plus
# a from-scratch golden of the mutated graph through the CLI.
"$bin/datagen" -dataset hosts -seed 1 -reduced -deltas 30 -out "$work"
"$bin/mariohctl" mutate -graph "$work/hosts.target.graph" -deltas "$work/hosts.target.deltas" \
    -out "$work/hosts.mutated.graph"
"$bin/mariohctl" apply -model "$work/model.json" -target "$work/hosts.mutated.graph" \
    -seed 1 -out "$work/mutated.golden.hg"
# Replay the stream in batches through a server-side session.
"$bin/mariohctl" session -server "$base" -model smoke -graph "$work/hosts.target.graph" \
    -deltas "$work/hosts.target.deltas" -batch 10 -seed 1 -out "$work/session.hg"
cmp "$work/mutated.golden.hg" "$work/session.hg"
echo "   session output is byte-identical to a from-scratch rebuild of the mutated graph"
curl -fsS "$base/metrics" | grep -q 'marioh_session_applies_total 3'
curl -fsS "$base/metrics" | grep -q 'marioh_session_created_total 1'

echo "== durable session survives kill -9 (WAL recovery, byte-identical)"
"$bin/mariohctl" session -server "$base" -model smoke -graph "$work/hosts.target.graph" \
    -deltas "$work/hosts.target.deltas" -batch 10 -seed 1 -keep \
    -out "$work/durable.hg" | tee "$work/durable.log"
sid=$(sed -n 's/^opened session \(s-[0-9]*\).*/\1/p' "$work/durable.log")
[ -n "$sid" ] || { echo "no session id captured"; exit 1; }
cmp "$work/mutated.golden.hg" "$work/durable.hg"
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
echo "   killed mariohd with SIGKILL (no shutdown hook ran)"

echo "== restart mariohd over the same data-dir"
"$bin/mariohd" -addr 127.0.0.1:0 -workers 2 -models-dir "$work/models" -data-dir "$work/data" >"$work/mariohd2.log" 2>&1 &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \(.*\)/\1/p' "$work/mariohd2.log" | head -1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "restarted mariohd never reported its address"; cat "$work/mariohd2.log"; exit 1
fi
base="http://$addr"
ok=""
for _ in $(seq 1 50); do
    if curl -fsS "$base/healthz" >"$work/health2.json" 2>/dev/null; then ok=1; break; fi
    sleep 0.1
done
[ -n "$ok" ] || { echo "healthz never came up after restart"; cat "$work/mariohd2.log"; exit 1; }
grep -q '"parked":1' "$work/health2.json"
# Resume the session (the daemon rehydrates it from snapshot + WAL) and
# re-emit its final state: it must match the pre-crash output byte for
# byte.
"$bin/mariohctl" session -server "$base" -model smoke -session "$sid" -seed 1 \
    -out "$work/resumed.hg" | sed 's/^/   /'
cmp "$work/mutated.golden.hg" "$work/resumed.hg"
curl -fsS "$base/metrics" | grep -q 'marioh_recovery_total{outcome='
echo "   recovered session output is byte-identical after kill -9"

echo "== graceful shutdown (SIGTERM drains, exit 0)"
# Leave an async job racing the shutdown so the drain has work to do; the
# client's polling may lose the race once the daemon stops serving.
"$bin/mariohctl" remote-reconstruct -server "$base" -model smoke \
    -target "$work/hosts.target.graph" -seed 1 -async -out "$work/async.hg" \
    >/dev/null 2>&1 || true &
client_pid=$!
sleep 0.2
kill -TERM "$daemon_pid"
code=0
wait "$daemon_pid" || code=$?
daemon_pid=""
if [ "$code" -ne 0 ]; then
    echo "mariohd exited $code after SIGTERM"; cat "$work/mariohd2.log"; exit 1
fi
grep -q "drained cleanly" "$work/mariohd2.log"
wait "$client_pid" 2>/dev/null || true

echo "smoke ok"
