#!/bin/sh
# Regenerates everything: tests, the perf gate, then every figure/table/
# ablation bench.
set -e
cd "$(dirname "$0")"
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
# Wall-clock perf smoke + regression gate (DESIGN.md §11). Quick mode
# keeps it CI-sized; the gate checks machine-independent ratios,
# fractions and overhead bounds against bench/perf_baseline.json.
./build/bench/perf_suite --quick --out build/BENCH_PERF.json \
  --check bench/perf_baseline.json
for b in build/bench/*; do
  case "$b" in
    */perf_suite) continue ;;  # already ran above, gated
  esac
  "$b"
done 2>&1 | tee bench_output.txt
