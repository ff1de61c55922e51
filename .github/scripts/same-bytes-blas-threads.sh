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
# in its feedback output; the JSON writer spells every float.  At uniform:1000 with 64 substeps
# the costate's vector run (printed as the residual line) does per-interval GEMMs large enough for
# OpenBLAS to thread: double-integrator takes its constant-A path, timevarying-demo the general one.
# Both pad their 1000 interval maps to 1024 with zero maps, so they also take the padded
# cross-interval tree (its batched compositions and vector levels) under one and two threads.
# The oracle check of seed 183 (n = 4, m = 3, N = 8, polynomial A and omega, nonzero x, v and
# q_b: 24 unknowns, 325 controls) runs the batch's widest Gramian GEMM, on [Z | Gamma | e0]
# with n+m+1 = 8 columns, whose last column and corner give the zero control's gradient and cost.
# With A, B, omega, W, x, R and v all constant the blocks form one state form and one control form
# per distinct interval length and copy them to every interval of that length: double-integrator
# on uniform:8 forms one, on durations:0.25,0.5,0.25 two that fill three rows, on uniform:1000 the
# nine distinct lengths linspace leaves, converge's dontchev grids one each, and the solve of seed
# 4 on uniform:8 four; every other case forms one per interval.
# compare-averaged of double-integrator on durations:0.25,0.5,0.25 against fine:8 covers the fine
# solve and the step reference's exact means: the fine optimum is averaged from its steps over the
# pieces between both grids' sample times, with no Simpson nodes.
set -euo pipefail
cd "$1"
for t in 1 2; do
  OPENBLAS_NUM_THREADS=$t sampledlq solve --problem timevarying-demo --grid durations:0.2,0.5,0.3 \
    --format json --debug-blocks --out "solve-threads$t.json" > "solve-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq oracle-check --random seed:5 \
    --out "oracle-threads$t.json" > "oracle-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq solve --problem double-integrator --grid uniform:8 \
    --format json --debug-blocks --out "const-solve-threads$t.json" > "const-solve-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq solve --problem double-integrator --grid durations:0.25,0.5,0.25 \
    --format json --debug-blocks --out "shared-forms-threads$t.json" > "shared-forms-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq oracle-check --random seed:4 \
    --out "const-oracle-threads$t.json" > "const-oracle-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq oracle-check --random seed:183 \
    --out "wide-oracle-threads$t.json" > "wide-oracle-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq solve --random seed:4 --grid uniform:8 \
    --format json --out "multi-control-threads$t.json" > "multi-control-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq converge --problem dontchev --grids 2,4 \
    --out "converge-threads$t.csv" > "converge-threads$t.txt"
  OPENBLAS_NUM_THREADS=$t sampledlq compare-averaged --problem double-integrator --grid durations:0.25,0.5,0.25 \
    --reference fine:8 --out "fine-averaged-threads$t.csv" > "fine-averaged-threads$t.txt"
  for p in double-integrator timevarying-demo; do
    OPENBLAS_NUM_THREADS=$t sampledlq solve --problem $p --grid uniform:1000 --substeps 64 \
      --format json --out "large-$p-threads$t.json" > "large-$p-threads$t.txt"
  done
done
for f in solve-threads oracle-threads const-solve-threads shared-forms-threads const-oracle-threads \
    wide-oracle-threads multi-control-threads large-double-integrator-threads large-timevarying-demo-threads; do
  cmp "${f}1.txt" "${f}2.txt"
  cmp "${f}1.json" "${f}2.json"
done
cmp converge-threads1.txt converge-threads2.txt
cmp fine-averaged-threads1.txt fine-averaged-threads2.txt
cmp fine-averaged-threads1.csv fine-averaged-threads2.csv
for f in "" _trace_N2 _trace_N4; do
  cmp "converge-threads1$f.csv" "converge-threads2$f.csv"
done
