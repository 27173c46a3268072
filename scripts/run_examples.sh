#!/usr/bin/env bash
# Run every shipped program/bindings pair through the CLI in deep, shallow,
# and oracle modes, with counters.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

for name in sharing feature_div prob_sum interval_abs; do
    for mode in deep shallow oracle; do
        echo "== $name ($mode) =="
        python3 -m multiworld run -p "programs/$name.mdl" -b "programs/$name.mb" \
            --mode "$mode" --stats
        echo
    done
done

echo "== consistency check (deep vs oracle) =="
for name in sharing feature_div prob_sum interval_abs; do
    python3 -m multiworld run -p "programs/$name.mdl" -b "programs/$name.mb" \
        --mode check | tail -1 | sed "s/^/$name: /"
done
