#!/usr/bin/env bash
# Compares perfbench's end-to-end metrics between two checkouts of this
# repository, run in alternating pairs.
#
# Builds perfbench in both checkouts and prints where each binary's
# linker placed `from_utf8` (scripts/utf8_placement.sh: it moves
# `setup_s` by itself). Then runs PAIRS pairs of one run per side: the
# parent goes first in odd pairs, the change in even pairs, so a drift
# of the host during the session lands on both sides. For each
# end-to-end metric BENCHMARK.json declares, prints the parent median
# and IQR (p25..p75), the change median, the change/parent ratio of the
# medians, and in how many pairs the change beat its parent run in the
# metric's `better` direction.
#
# Usage: bash scripts/perf_pairs.sh PARENT CHANGE WORKLOAD PAIRS [SEED] [SECONDS]
#   SEED defaults to 1 and SECONDS (per run) to 20. Build both sides in
#   sibling directories whose paths have equal length: the path is
#   linked into the binary and shifts code placement.
#   e.g. bash scripts/perf_pairs.sh ../base ../head check_deep 5
#        bash scripts/perf_pairs.sh . . check_deep 1 1 2   # smoke test
# A run that fails (a wrong answer or a failed request) stops the script
# with a nonzero exit.
set -euo pipefail

if [ $# -lt 4 ]; then
    echo "usage: perf_pairs.sh PARENT CHANGE WORKLOAD PAIRS [SEED] [SECONDS]" >&2
    exit 2
fi
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
WORKLOAD=$3
PAIRS=$4
SEED=${5:-1}
RUN_SECONDS=${6:-20}
HERE=$(cd "$(dirname "$0")" && pwd)

for SIDE in "$PARENT" "$CHANGE"; do
    cargo build --release --offline --quiet --manifest-path "$SIDE/perfbench/Cargo.toml"
done
bash "$HERE/utf8_placement.sh" "$PARENT/perfbench/target/release/perfbench" \
    "$CHANGE/perfbench/target/release/perfbench"

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

# Appends one "<side> <pair> <metric> <value>" line per end-to-end
# metric of one run, read from perfbench's last stdout line (a JSON
# object whose `metrics` map each name to {"unit", "value"}).
run() {
    local side=$1 dir=$2 pair=$3 line
    line=$(cd "$dir" && perfbench/target/release/perfbench --workload "$WORKLOAD" \
        --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0 2>/dev/null | tail -n 1)
    grep -o '"[a-z0-9_]*":{"unit":"[^"]*","value":[-0-9.e+]*}' <<< "$line" |
        sed -E 's/^"([a-z0-9_]+)".*"value":(.*)}$/\1 \2/' |
        while read -r metric value; do
            echo "$side $pair $metric $value"
        done >> "$OUT/runs"
}

for PAIR in $(seq 1 "$PAIRS"); do
    if [ $((PAIR % 2)) -eq 1 ]; then
        run parent "$PARENT" "$PAIR"
        run change "$CHANGE" "$PAIR"
    else
        run change "$CHANGE" "$PAIR"
        run parent "$PARENT" "$PAIR"
    fi
    echo "pair $PAIR of $PAIRS done" >&2
done

# "<metric> <lower|higher>" for each end-to-end metric, in declared order.
awk '/"end_to_end"/ { on = 1 } on && /"name"/ {
        match($0, /"name": *"[^"]*"/); split(substr($0, RSTART, RLENGTH), name, "\"")
        match($0, /"better": *"[^"]*"/); split(substr($0, RSTART, RLENGTH), better, "\"")
        print name[4], better[4]
    } on && /\]/ { exit }' "$CHANGE/BENCHMARK.json" > "$OUT/metrics"

echo "workload $WORKLOAD, seed $SEED, $PAIRS pairs of ${RUN_SECONDS}s runs"
awk '
    # Quantile q of the n sorted values in v[1..n], linearly interpolated.
    function quantile(v, n, q,    h, lo) {
        h = 1 + (n - 1) * q; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function sorted(side, m, v,    n, i, j, t) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((side, m, i) in val) v[++n] = val[side, m, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        return n
    }
    FNR == NR { order[++nm] = $1; better[$1] = $2; next }
    { val[$1, $3, $2] = $4; if ($2 > pairs) pairs = $2 }
    END {
        printf "%-16s %14s %24s %14s %8s %6s\n", "metric", "parent p50", "parent IQR", "change p50", "ratio", "wins"
        for (k = 1; k <= nm; k++) {
            m = order[k]
            np = sorted("parent", m, p); nc = sorted("change", m, c)
            if (np == 0 || nc == 0) continue
            pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
            wins = 0
            for (i = 1; i <= pairs; i++) {
                a = val["parent", m, i]; b = val["change", m, i]
                if (better[m] == "lower" ? b < a : b > a) wins++
            }
            iqr = sprintf("%.4g..%.4g", quantile(p, np, 0.25), quantile(p, np, 0.75))
            printf "%-16s %14.4g %24s %14.4g %8.3f %3d/%-2d\n", m, pm, iqr, cm, pm == 0 ? 0 : cm / pm, wins, pairs
        }
    }' "$OUT/metrics" "$OUT/runs"
