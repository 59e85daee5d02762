#!/bin/sh
# Paired A/B of the repo benchmark between two checkouts.
#
#   scripts/ab.sh PARENT_DIR CHANGE_DIR WORKLOAD[,WORKLOAD...|all] [PAIRS=10]
#
# For each workload in turn — `all` means every workload of BENCHMARK.json,
# in its order — runs `benchmark/run.sh --workload W --seed N --seconds 20
# --trace 0` for N = 1..PAIRS in both checkouts, each with the benchmark
# code and the build of its own tree, alternating which side goes first
# so drift on the host lands on both. Prints every run's result line as it
# completes, then per workload a table: per end-to-end metric of
# BENCHMARK.json each side's median [quartiles], the median change,
# whether it exceeds the distance between the parent's quartiles, and the
# pairs each side won (ties count for neither) — plus failed operations
# and verification per side. A gain may be claimed when the change wins at
# least nine tenths of the pairs and "gap>iqr" says yes — from ten pairs
# up: below that the column reads "n<10" and the header says so, because
# a few pairs produce verdicts that more pairs take back (four once read
# -7.9 %, 4/0, "yes" for a change that ten pairs put at +0.4 %). The
# "gain" column applies that rule: "yes" when both hold, "no" otherwise,
# "n<10" below ten pairs — so a claim is read from one column.
#
# The last line names every metric, on any workload, whose median moved
# past its BENCHMARK.json bound, and which way — a change that moves one
# the worse way past its bound is refused — or says that none did.
#
# Only the last line of each run's stdout is read.

set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD[,WORKLOAD...|all] [PAIRS=10]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${4:-10}
if [ "$parent" = "$change" ]; then
    echo "PARENT_DIR and CHANGE_DIR are the same checkout" >&2
    exit 2
fi
spec="$change/BENCHMARK.json"
if [ "$3" = all ]; then
    workloads=$(awk '
        /"workloads"/ { on = 1; next }
        on && /^  \]/ { on = 0 }
        on && /"name"/ { split($0, q, "\""); print q[4] }
    ' "$spec")
else
    workloads=$(echo "$3" | tr ',' ' ')
fi

rows=$(mktemp)
past=$(mktemp)
trap 'rm -f "$rows" "$past"' EXIT

# One run of $workload in checkout $2, recorded as "<side> <seed> <json>".
# Each checkout builds into its own benchmark/target: a shared
# CARGO_TARGET_DIR would hand one side the other's binary.
run() {
    json=$(cd "$2" && env -u CARGO_TARGET_DIR bash benchmark/run.sh \
        --workload "$workload" --seed "$3" --seconds 20 --trace 0 | tail -n 1)
    echo "$1 $3 $json" | tee -a "$rows"
}

for workload in $workloads; do
    : >"$rows"
    seed=1
    while [ "$seed" -le "$pairs" ]; do
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$parent" "$seed"
            run change "$change" "$seed"
        else
            run change "$change" "$seed"
            run parent "$parent" "$seed"
        fi
        seed=$((seed + 1))
    done

    echo
    echo "workload $workload, $pairs pairs (seeds 1..$pairs), parent $parent, change $change"
    if [ "$pairs" -lt 10 ]; then
        echo "fewer than ten pairs: no gain or regression may be read from this table (gap>iqr and gain show n<10)"
    fi
    awk -v pairs="$pairs" -v workload="$workload" -v past="$past" '
    # First file: BENCHMARK.json — the end-to-end metrics, their direction
    # and bound.
    FNR == NR {
        if ($0 ~ /"end_to_end"/) { in_e2e = 1 }
        else if (in_e2e && $0 ~ /^  \]/) { in_e2e = 0 }
        else if (in_e2e && $0 ~ /"name"/) { split($0, q, "\""); name = q[4]; order[++metrics] = name }
        else if (in_e2e && $0 ~ /"better"/) { split($0, q, "\""); better[name] = q[4] }
        else if (in_e2e && $0 ~ /"bound"/) { split($0, q, ":"); bound[name] = q[2] + 0 }
        next
    }
    # Second file: "<side> <seed> <json>" rows.
    {
        side = $1; seed = $2
        runs[side]++
        if ($0 ~ /"correct":true/) { correct[side]++ }
        attempted[side] += field($0, "\"attempted\":")
        failed[side] += field($0, "\"failed\":")
        for (m = 1; m <= metrics; m++) {
            value[side, order[m], seed] = field($0, "\"" order[m] "\":{\"value\":")
        }
    }
    function field(line, key,    at) {
        at = index(line, key)
        if (at == 0) { return "nan" }
        return substr(line, at + length(key)) + 0
    }
    # Median of v[lo..hi] (sorted).
    function mid(v, lo, hi,    n) {
        n = hi - lo + 1
        if (n % 2) { return v[lo + (n - 1) / 2] }
        return (v[lo + n / 2 - 1] + v[lo + n / 2]) / 2
    }
    # Sorts one side of one metric into s[]; sets med, q1, q3 (the medians
    # of the lower and upper halves).
    function summarize(side, name,    i, j, t, half) {
        for (i = 1; i <= pairs; i++) { s[i] = value[side, name, i] }
        for (i = 2; i <= pairs; i++) {
            t = s[i]
            for (j = i - 1; j >= 1 && s[j] > t; j--) { s[j + 1] = s[j] }
            s[j + 1] = t
        }
        half = int(pairs / 2)
        med = mid(s, 1, pairs)
        q1 = pairs > 1 ? mid(s, 1, half) : med
        q3 = pairs > 1 ? mid(s, pairs - half + 1, pairs) : med
    }
    END {
        printf "%-32s %-6s %-34s %-34s %8s %8s %5s  %s\n", "metric", "better", \
            "parent median [q1, q3]", "change median [q1, q3]", "change", "gap>iqr", "gain", \
            "wins change/parent/tie"
        for (m = 1; m <= metrics; m++) {
            name = order[m]
            summarize("parent", name); pm = med; p1 = q1; p3 = q3
            summarize("change", name); cm = med; c1 = q1; c3 = q3
            won = lost = tie = 0
            for (i = 1; i <= pairs; i++) {
                d = value["change", name, i] - value["parent", name, i]
                if (better[name] == "lower") { d = -d }
                if (d > 0) { won++ } else if (d < 0) { lost++ } else { tie++ }
            }
            gap = cm - pm; if (gap < 0) { gap = -gap }
            beyond = pairs < 10 ? "n<10" : (gap > p3 - p1) ? "yes" : "no"
            gain = pairs < 10 ? "n<10" : (beyond == "yes" && 10 * won >= 9 * pairs) ? "yes" : "no"
            percent = pm ? 100 * (cm - pm) / pm : 0
            printf "%-32s %-6s %-34s %-34s %+7.1f%% %8s %5s  %d/%d/%d\n", name, better[name], \
                sprintf("%.6g [%.6g, %.6g]", pm, p1, p3), sprintf("%.6g [%.6g, %.6g]", cm, c1, c3), \
                percent, beyond, gain, won, lost, tie
            if (name in bound && (percent > 100 * bound[name] || -percent > 100 * bound[name])) {
                worse = (better[name] == "lower") == (percent > 0)
                printf "%s %s %+.1f%% %s (bound %g%%)\n", workload, name, percent, \
                    worse ? "worse" : "better", 100 * bound[name] >> past
            }
        }
        printf "failed operations: parent %d of %d, change %d of %d; verified correct: parent %d of %d runs, change %d of %d runs\n", \
            failed["parent"], attempted["parent"], failed["change"], attempted["change"], \
            correct["parent"], runs["parent"], correct["change"], runs["change"]
    }
    ' "$spec" "$rows"
done

echo
if [ -s "$past" ]; then
    echo "past its bound: $(paste -sd ';' "$past" | sed 's/;/; /g')"
else
    echo "past its bound: none (every end-to-end median within its bound on $(echo $workloads | wc -w) workload(s))"
fi
