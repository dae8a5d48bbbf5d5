#!/usr/bin/env bash
# Paired A/B measurement of two checkouts on one machine. Every workload
# runs PAIRS times on each checkout with the same seed per pair,
# alternating which side goes first, and the runs are then compared with
# the paired decision rule (see compare.go). Run from anywhere:
#
#   bash perfbench/pair.sh PARENT_CHECKOUT CHANGE_CHECKOUT OUT_DIR [PAIRS] [FIRST_SEED]
#
# PAIRS defaults to 10 and FIRST_SEED to 1000; TRACE=1 makes traced
# runs. Every workload the change lists is run. Runs are stored as
# OUT_DIR/{parent,change}/<workload>/<seed>.json with their reports in
# .log files beside them; the comparison goes to OUT_DIR/compare.md and
# OUT_DIR/compare.json. The exit status is the comparison's: 1 when a
# metric regressed beyond its bound or a run was incorrect.
set -euo pipefail
if (($# < 3)); then
  sed -n '2,14s/^# \{0,1\}//p' "$0" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
pairs=${4:-10}
first=${5:-1000}
workloads=$(cd "$change" && bash perfbench/run.sh workloads)

run() { # arm checkout workload seed
  mkdir -p "$out/$1/$3"
  if ! (cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" --trace "${TRACE:-0}") \
    >"$out/$1/$3/$4.json" 2>"$out/$1/$3/$4.log"; then
    echo "perfbench pair: $1 $3 seed $4 failed, see $out/$1/$3/$4.log" >&2
  fi
}

for ((i = 0; i < pairs; i++)); do
  seed=$((first + i))
  for w in $workloads; do
    if ((i % 2 == 0)); then
      run parent "$parent" "$w" "$seed"
      run change "$change" "$w" "$seed"
    else
      run change "$change" "$w" "$seed"
      run parent "$parent" "$w" "$seed"
    fi
  done
done
cd "$change"
bash perfbench/run.sh compare -parent "$out/parent" -change "$out/change" \
  -json "$out/compare.json" -md "$out/compare.md"
