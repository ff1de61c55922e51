#!/usr/bin/env bash
# Run the installed `sampledlq` script under one and two OpenBLAS threads and fail unless
# every stdout, --out file and trace file is byte-identical between the two.
#
# Usage: same-bytes-blas-threads.sh DIR   (the outputs are written into DIR)
#
# The blocks' Simpson forms are dgemm calls, so their bytes must not depend on BLAS threading.
# timevarying-demo and seed 5 take the RK4 scan, double-integrator and seed 4 (constant A, B and
# omega) the equal-step doubling, converge's closed-form reference the dense run's
# [A | B u + omega] table, and the solve of seed 4 (n = 3, m = 3) the sweep's m >= 2 solve pair
# in its feedback output; the JSON writer spells every float.
set -euo pipefail
cd "$1"
for t in 1 2; do
  OPENBLAS_NUM_THREADS=$t sampledlq solve --problem timevarying-demo --grid durations:0.2,0.5,0.3 \
    --format json --debug-blocks --out "solve-threads$t.json" > "solve-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq oracle-check --random seed:5 \
    --out "oracle-threads$t.json" > "oracle-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq solve --problem double-integrator --grid uniform:8 \
    --format json --debug-blocks --out "const-solve-threads$t.json" > "const-solve-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq oracle-check --random seed:4 \
    --out "const-oracle-threads$t.json" > "const-oracle-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq solve --random seed:4 --grid uniform:8 \
    --format json --out "multi-control-threads$t.json" > "multi-control-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq converge --problem dontchev --grids 2,4 \
    --out "converge-threads$t.csv" > "converge-threads$t.txt"
done
for f in solve-threads oracle-threads const-solve-threads const-oracle-threads multi-control-threads; do
  cmp "${f}1.txt" "${f}2.txt"
  cmp "${f}1.json" "${f}2.json"
done
cmp converge-threads1.txt converge-threads2.txt
for f in "" _trace_N2 _trace_N4; do
  cmp "converge-threads1$f.csv" "converge-threads2$f.csv"
done
