#!/usr/bin/env bash
# Shard/serial equivalence matrix (run by `make shard-check` and the CI
# shard-equivalence job): for each bundled dataset, train once, produce a
# serial golden reconstruction, then reconstruct with -shards 1/4/16 (the
# partitioner cuts every edge whose endpoints share no neighbour, so
# components really get split) and require every output to be
# byte-identical to the golden. The same
# matrix then runs over scenario-corpus families (datagen -family), whose
# shapes — dense hubs, bridge chains, overlapping cliques, island
# archipelagos — stress the partitioner harder than the bundled datasets.
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

for ds in hosts pschool; do
    echo "== $ds"
    "$bin/mariohctl" gen -dataset "$ds" -seed "$SEED" -out "$work"
    "$bin/mariohctl" train -train "$work/$ds.source.hg" -seed "$SEED" -epochs 15 -out "$work/$ds.model.json"
    "$bin/mariohctl" apply -model "$work/$ds.model.json" -target "$work/$ds.target.graph" \
        -seed "$SEED" -out "$work/$ds.golden.hg"
    for n in 1 4 16; do
        "$bin/mariohctl" apply -model "$work/$ds.model.json" -target "$work/$ds.target.graph" \
            -seed "$SEED" -shards "$n" -out "$work/$ds.shard$n.hg"
        cmp "$work/$ds.golden.hg" "$work/$ds.shard$n.hg"
        echo "   -shards $n is byte-identical to the serial golden"
    done
done

# Corpus families have no source hypergraph of their own; byte-equivalence
# is model-agnostic, so they reuse the hosts-trained model from above.
for fam in powerlaw-hubs bridge-chain clique-cores archipelago; do
    echo "== corpus/$fam"
    "$bin/datagen" -family "$fam" -seed "$SEED" -out "$work"
    "$bin/mariohctl" apply -model "$work/hosts.model.json" -target "$work/$fam.target.graph" \
        -seed "$SEED" -out "$work/$fam.golden.hg"
    for n in 1 4 16; do
        "$bin/mariohctl" apply -model "$work/hosts.model.json" -target "$work/$fam.target.graph" \
            -seed "$SEED" -shards "$n" -out "$work/$fam.shard$n.hg"
        cmp "$work/$fam.golden.hg" "$work/$fam.shard$n.hg"
        echo "   -shards $n is byte-identical to the serial golden"
    done
done
echo "shard-check ok"
