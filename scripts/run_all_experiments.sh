#!/usr/bin/env sh
# Regenerates every figure/table/extension into results/, at the ops count
# given as $1 (default 1000000). Used to produce the recorded outputs
# backing EXPERIMENTS.md.
set -eu
ops="${1:-1000000}"
cd "$(dirname "$0")/.."
mkdir -p results
for bin in fig03_access_frequency fig04_consecutive_scenarios fig05_silent_writes \
           motivation_rmw_traffic fig09_access_reduction fig10_blocksize_sensitivity \
           fig11_cachesize_sensitivity table_area_overhead sram_rmw_walkthrough \
           ext_performance ext_power_dvfs ext_ablations ext_alternatives \
           ext_soft_errors ext_sweeps ext_context_switch; do
    echo "== $bin"
    case "$bin" in
        # Neither reads --ops: the area table is closed-form and the
        # walkthrough replays a fixed write sequence.
        table_area_overhead | sram_rmw_walkthrough) flags="" ;;
        *) flags="--ops $ops" ;;
    esac
    # shellcheck disable=SC2086 # $flags splits into flag and value
    cargo run --release -q -p cache8t-bench --bin "$bin" -- $flags | tee "results/$bin.txt"
done
