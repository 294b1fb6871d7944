#!/usr/bin/env bash
# Parallelism equivalence matrix (run by `make parallel-check` and the CI
# parallel-equivalence job): for each bundled dataset, train once, produce
# a -parallel 1 golden reconstruction, then reconstruct with -parallel 2,
# -parallel 8 and the default (-parallel 0, one worker per GOMAXPROCS) and
# require every output to be byte-identical to the golden. eu is one dense
# component whose first rounds draw thousands of Phase 2 sub-cliques, so
# they score their draws on every worker; pschool's first rounds do too.
# The same matrix then runs over scenario-corpus families (datagen
# -family), whose shapes — dense hubs, bridge chains, overlapping cliques,
# island archipelagos — stress the parallel round engine's seed loop and
# component search harder than the bundled datasets.
#
# SEED overrides the generation/reconstruction seed (default 1); the
# nightly job rotates it.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${SEED:-1}"
bin=$(mktemp -d)
work=$(mktemp -d)
trap 'rm -rf "$bin" "$work"' EXIT

echo "== build (SEED=$SEED)"
go build -o "$bin/mariohctl" ./cmd/mariohctl
go build -o "$bin/datagen" ./cmd/datagen

# check <name> <model> reconstructs $work/<name>.target.graph at -parallel
# 1 (the golden), 2, 8 and the default, and cmps each against the golden.
check() {
    local name="$1" model="$2"
    "$bin/mariohctl" apply -model "$model" -target "$work/$name.target.graph" \
        -seed "$SEED" -parallel 1 -out "$work/$name.golden.hg"
    for p in 2 8 0; do
        "$bin/mariohctl" apply -model "$model" -target "$work/$name.target.graph" \
            -seed "$SEED" -parallel "$p" -out "$work/$name.parallel$p.hg"
        cmp "$work/$name.golden.hg" "$work/$name.parallel$p.hg"
        echo "   -parallel $p is byte-identical to the -parallel 1 golden"
    done
}

for ds in hosts pschool eu; do
    echo "== $ds"
    "$bin/mariohctl" gen -dataset "$ds" -seed "$SEED" -out "$work"
    "$bin/mariohctl" train -train "$work/$ds.source.hg" -seed "$SEED" -epochs 15 -out "$work/$ds.model.json"
    check "$ds" "$work/$ds.model.json"
done

# Corpus families have no source hypergraph of their own; byte-equivalence
# is model-agnostic, so they reuse the hosts-trained model from above.
for fam in powerlaw-hubs bridge-chain clique-cores archipelago; do
    echo "== corpus/$fam"
    "$bin/datagen" -family "$fam" -seed "$SEED" -out "$work"
    check "$fam" "$work/hosts.model.json"
done
echo "parallel-check ok"
