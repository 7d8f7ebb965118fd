#!/usr/bin/env bash
# Compare two sets of perfbench runs, report only (never a gate).
#
#   scripts/bench_diff.sh parent.jsonl change.jsonl [BENCHMARK.json]
#
# Each input file is the concatenated stdout of `bash perfbench/run.sh`
# runs: a metadata line carrying "workload", then the result line
# carrying "metrics".  For every workload and every end-to-end metric
# that BENCHMARK.json declares, print the parent and change medians
# with their quartiles, the change/parent ratio of the medians, how
# many index-aligned run pairs the change wins (run i of one file
# against run i of the other), and whether the change median stays
# within the metric's bound of the parent median.
#
# Exits non-zero only on bad input; a metric outside its bound is
# printed as WORSE, not turned into a failing exit code.
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,16p' "$0" >&2; exit 2; }
parent="$1"
change="$2"
spec="${3:-BENCHMARK.json}"
for f in "$parent" "$change" "$spec"; do
  [ -r "$f" ] || { echo "bench_diff: cannot read $f" >&2; exit 2; }
done
command -v jq > /dev/null || { echo "bench_diff: needs jq" >&2; exit 2; }

# Result lines tagged with the workload of the metadata line before them.
runs() {
  jq -c -n '
    reduce inputs as $line ({workload: null, out: []};
      if $line.workload then .workload = $line.workload
      elif $line.metrics then .out += [{workload: .workload, failed: ($line.failed // 0),
                                        attempted: ($line.attempted // 0), metrics: $line.metrics}]
      else . end)
    | .out' "$1"
}

jq -r -n \
  --argjson parent "$(runs "$parent")" \
  --argjson change "$(runs "$change")" \
  --slurpfile spec "$spec" '
  # Quantile with linear interpolation between order statistics.
  def quantile($p):
    sort as $s | ($s | length) as $n
    | if $n == 0 then null
      else (($n - 1) * $p) as $i | ($i | floor) as $lo | ($i | ceil) as $hi
        | $s[$lo] + ($s[$hi] - $s[$lo]) * ($i - $lo)
      end;
  def fmt: if . == null then "-" elif (. | fabs) >= 100 then (. * 10 | round / 10 | tostring)
           else (. * 1000 | round / 1000 | tostring) end;
  def values($runs; $w; $m): [$runs[] | select(.workload == $w) | .metrics[$m].value // empty];
  def better($better; $a; $b): if $better == "lower" then $a < $b else $a > $b end;
  def share($runs; $w): [$runs[] | select(.workload == $w)]
    | (map(.attempted) | add) as $a
    | if ($a // 0) > 0 then (map(.failed) | add) / $a else null end;
  def pad($n): if $n > 0 then " " * $n else "" end;

  [ ["workload", "metric", "unit", "parent p50 [q1 q3]", "change p50 [q1 q3]", "ratio", "wins", "bound", "verdict"],
  ( ([$parent[].workload] + [$change[].workload]) | unique[] as $w
    | $spec[0].end_to_end[] as $m
    | values($parent; $w; $m.name) as $p
    | values($change; $w; $m.name) as $c
    | select(($p | length) > 0 or ($c | length) > 0)
    | ($p | quantile(0.5)) as $pm
    | ($c | quantile(0.5)) as $cm
    | (if $pm == null or $cm == null or $pm == 0 then null else $cm / $pm end) as $ratio
    | ([range(0; [($p | length), ($c | length)] | min)] | map(select(better($m.better; $c[.]; $p[.]))) | length) as $wins
    | [ $w, $m.name, $m.unit,
        "\($pm | fmt) [\($p | quantile(0.25) | fmt) \($p | quantile(0.75) | fmt)]",
        "\($cm | fmt) [\($c | quantile(0.25) | fmt) \($c | quantile(0.75) | fmt)]",
        ($ratio | fmt),
        "\($wins)/\([($p | length), ($c | length)] | min)",
        ($m.bound | tostring),
        (if $ratio == null then "n/a"
         elif $m.better == "lower" and $ratio > 1 + $m.bound then "WORSE"
         elif $m.better == "higher" and $ratio < 1 - $m.bound then "WORSE"
         else "ok" end) ]
  ),
  ( ([$parent[].workload] + [$change[].workload]) | unique[] as $w
    | share($parent; $w) as $pr
    | share($change; $w) as $cr
    | [ $w, "error_ratio", "ratio", ($pr | fmt), ($cr | fmt), "-", "-", "-",
        (if $pr != null and $cr != null and $cr > $pr then "WORSE" else "ok" end) ] ) ]
  | (transpose | map(map(length) | max)) as $width
  | .[] | [range(0; length) as $i | .[$i] + pad($width[$i] - (.[$i] | length))]
  | join("  ") | sub(" +$"; "")'
