#!/usr/bin/env bash
# Incremental/serial equivalence matrix (run by `make incr-check` and the
# CI incremental-equivalence job): for each bundled dataset — and then for
# a slate of scenario-corpus families whose delta streams are engineered
# to be adversarial (hub promote/demote thrash, bridge cuts, component
# merge/split storms, exact structural reverts) — generate a reproducible
# edge-delta stream, then
#
#   1. materialize the mutated graph and produce from-scratch golden
#      reconstructions of it — at the default parallelism and with
#      -parallel 1/2/8, all of which must be byte-identical to each other
#   2. replay the delta stream through an incremental session in batches,
#      with -verify re-running a from-scratch rebuild after EVERY batch
#      and failing unless the session output matches byte for byte
#   3. cmp the session's final output against the golden
#
# SEED overrides the generation/reconstruction seed (default 1); the
# nightly job rotates it.
#
# The live-daemon mirror of this check runs in scripts/smoke.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${SEED:-1}"
bin=$(mktemp -d)
work=$(mktemp -d)
trap 'rm -rf "$bin" "$work"' EXIT

echo "== build (SEED=$SEED)"
go build -o "$bin/mariohctl" ./cmd/mariohctl
go build -o "$bin/datagen" ./cmd/datagen

# check <name> <model> runs the full matrix over $work/<name>.target.graph
# and $work/<name>.target.deltas.
check() {
    local name="$1" model="$2"
    echo "   golden: full rebuild of the mutated graph (default + parallel 1/2/8)"
    "$bin/mariohctl" mutate -graph "$work/$name.target.graph" -deltas "$work/$name.target.deltas" \
        -out "$work/$name.mutated.graph"
    "$bin/mariohctl" apply -model "$model" -target "$work/$name.mutated.graph" \
        -seed "$SEED" -out "$work/$name.golden.hg"
    for p in 1 2 8; do
        "$bin/mariohctl" apply -model "$model" -target "$work/$name.mutated.graph" \
            -seed "$SEED" -parallel "$p" -out "$work/$name.golden.parallel$p.hg"
        cmp "$work/$name.golden.hg" "$work/$name.golden.parallel$p.hg"
    done

    echo "   session: replay deltas in batches of 20 with per-batch verification"
    "$bin/mariohctl" session -model "$model" -graph "$work/$name.target.graph" \
        -deltas "$work/$name.target.deltas" -batch 20 -verify -seed "$SEED" -out "$work/$name.session.hg"
    cmp "$work/$name.golden.hg" "$work/$name.session.hg"
    echo "   session final state is byte-identical to the from-scratch golden"
}

for ds in hosts pschool; do
    echo "== $ds"
    "$bin/datagen" -dataset "$ds" -seed "$SEED" -reduced -deltas 60 -delta-seed "$SEED" -out "$work"
    "$bin/mariohctl" train -train "$work/$ds.source.hg" -seed "$SEED" -epochs 15 -out "$work/$ds.model.json"
    check "$ds" "$work/$ds.model.json"
done

# Corpus families reuse the hosts-trained model (byte-equivalence is
# model-agnostic); their delta streams derive from -seed alone.
for fam in powerlaw-hubs bridge-chain merge-split-churn revert-cycles; do
    echo "== corpus/$fam"
    "$bin/datagen" -family "$fam" -seed "$SEED" -deltas 60 -out "$work"
    check "$fam" "$work/hosts.model.json"
done

echo "== incremental speedup floor (>= 5x at <= 10% dirty components)"
go test -run TestIncrementalSessionSpeedup -count=1 .

echo "incr-check ok"
