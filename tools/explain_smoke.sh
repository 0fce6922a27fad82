#!/bin/sh
# Explain smoke: `run --explain` on q1 and q2 must print, for every
# stream, the logical and physical trees — including at least one hash
# join and at least one predicate the rewrite layer pushed down.  Guards
# the explain surface (and the lowering/rewrite markers it exposes)
# against silent regression.
set -eu

cd "$(dirname "$0")/.."

for q in q1 q2; do
  echo "== run --explain --query $q"
  out=$(dune exec bin/silkroute_cli.exe -- run --query "$q" --scale 0.1 \
    --explain 2>&1 >/dev/null)
  for needle in "logical plan:" "physical plan:" "hash-join" \
    "pushdown<-where"; do
    if ! printf '%s' "$out" | grep -q "$needle"; then
      echo "FAIL: --explain output for $q lacks '$needle'" >&2
      exit 1
    fi
  done
  # estimates and actuals are both filled in after a run
  if ! printf '%s' "$out" | grep -Eq "rows est=[0-9]+ act=[0-9]+"; then
    echo "FAIL: --explain output for $q lacks est/act row figures" >&2
    exit 1
  fi
done

# the spooled (resilient) path explains the plan its backend executed:
# every scan carries actual rows, none is left at act=?
echo "== run --resilient --explain --query q1"
out=$(dune exec bin/silkroute_cli.exe -- run --query q1 --scale 0.1 \
  --resilient --explain 2>&1 >/dev/null)
if ! printf '%s' "$out" | grep -Eq "scan .*rows est=[0-9]+ act=[0-9]+"; then
  echo "FAIL: --resilient --explain shows no scan with actual rows" >&2
  exit 1
fi
if printf '%s' "$out" | grep -Eq "scan .*act=\?"; then
  echo "FAIL: --resilient --explain leaves a scan at act=?" >&2
  exit 1
fi

echo "== explain smoke OK"
