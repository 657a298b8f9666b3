#!/bin/bash
# Regenerate every experiment output into results/. Runs from the
# repository root (the directory holding this script); stops at the first
# binary that fails and exits non-zero with its name.
set -u
cd "$(dirname "$0")" || exit 1
R=results
run() {
    echo "== $1 =="
    if ! cargo run -p bench --release --bin "$1" > "$R/$2"; then
        echo "FAILED: $1" >&2
        exit 1
    fi
}
run fig3_adaptive_cost fig3.tsv
run fig4_uniform_gap fig4.tsv
run fig6_cpu_speedup fig6.tsv
run table1_gpu_scaling table1.tsv
run fig7_hetero_speedup fig7.tsv
run ablation_report ablations.tsv
run ext_offload_pl ext_offload.tsv
run fig10_finegrained fig10.tsv
run fig8_dynamic_strategies fig8.tsv
echo ALL EXPERIMENTS DONE
