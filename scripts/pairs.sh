#!/bin/sh
# Paired benchmark runs: the repository benchmark (BENCHMARK.json) on a
# parent commit and on this checkout, alternated, then a per-metric
# summary of the end-to-end metrics.
#
#   sh scripts/pairs.sh PARENT [--workload W] [--seed S] [--pairs N] [--seconds T]
#
# PARENT is any commit-ish; this side is the working tree as it stands.
# The parent is built in a git worktree under .bench_build/ and removed
# afterwards. Odd pairs run the parent first, even pairs the change, so
# neither side always runs on a warmer or quieter host. Every run's full
# output stays in .bench_build/pairs/<side>.<pair>.txt.
#
# For each metric it prints both sides' runs, median and q1-q3 (the
# quartile method of perfbench/bench/stats.go), the change's wins out of
# N pairs in the metric's `better` direction, whether the median moved by
# more than the parent's q1-q3 spread ("sep"), and whether the change's
# median stays inside the metric's `bound` of the parent's.
set -eu

usage() {
    echo "usage: $0 PARENT [--workload W] [--seed S] [--pairs N] [--seconds T]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent=$1
shift
workload=cold seed=1 pairs=10 seconds=30
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    *) usage ;;
    esac
    shift 2
done

cd "$(dirname "$0")/.."
root=$(pwd)
out=$root/.bench_build/pairs
wt=$out/parent
rev=$(git rev-parse --verify "$parent^{commit}")

cleanup() { git worktree remove --force "$wt" 2>/dev/null || true; git worktree prune; }
cleanup
rm -f "$out"/parent.*.txt "$out"/change.*.txt
mkdir -p "$out"
git worktree add --quiet --detach "$wt" "$rev"
trap cleanup EXIT
trap 'exit 130' INT TERM

echo "# pairs parent=$rev change=$(git rev-parse HEAD)$(git diff --quiet HEAD || echo +dirty)"
echo "# workload=$workload seed=$seed pairs=$pairs seconds=$seconds nproc=$(nproc)"
i=1
while [ "$i" -le "$pairs" ]; do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        dir=$root
        [ "$side" = parent ] && dir=$wt
        f=$out/$side.$i.txt
        bash "$dir/perfbench/run.sh" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 >"$f" 2>&1 || echo "# exit $?" >>"$f"
        echo "# pair $i $side $(grep -E '^(fwd_pps|setup_s|ops_failed) ' "$f" | tr '\n' ' ')"
    done
    i=$((i + 1))
done

files=
i=1
while [ "$i" -le "$pairs" ]; do
    files="$files $out/parent.$i.txt $out/change.$i.txt"
    i=$((i + 1))
done

# shellcheck disable=SC2086
awk -v pairs="$pairs" '
function at(a, n, p,    pos, lo) { # exclusive quartiles, as stats.go
    pos = p * (n + 1) - 1
    if (pos <= 0) return a[1]
    if (pos >= n - 1) return a[n]
    lo = int(pos)
    return a[lo + 1] + (a[lo + 2] - a[lo + 1]) * (pos - lo)
}
function sorted(side, m, a,    i, j, n, v) {
    n = 0
    for (i = 1; i <= pairs; i++) {
        if (!((side, i, m) in val)) continue
        v = val[side, i, m]
        for (j = n; j > 0 && a[j] > v; j--) a[j + 1] = a[j]
        a[j + 1] = v
        n++
    }
    return n
}
function runs(side, m,    i, s) {
    s = ""
    for (i = 1; i <= pairs; i++) s = s " " ((side, i, m) in val ? val[side, i, m] : "-")
    return s
}
FILENAME ~ /BENCHMARK\.json$/ {
    if (/"end_to_end"/) e2e = 1
    if (/"per_layer"/) e2e = 0
    if (!e2e) next
    v = $0
    if (/"name"/) { sub(/.*"name": *"/, "", v); sub(/".*/, "", v); order[++nm] = v; cur = v }
    else if (/"better"/) { sub(/.*"better": *"/, "", v); sub(/".*/, "", v); better[cur] = v }
    else if (/"bound"/) { sub(/.*"bound": *"?/, "", v); sub(/[^0-9.eE+-].*/, "", v); bound[cur] = v }
    next
}
FNR == 1 { n = split(FILENAME, parts, "/"); split(parts[n], f, "."); side = f[1]; idx = f[2] }
$1 == "inputs_sha256" { sha[side, idx] = $2 }
$1 == "ops_failed" { failed[side] += $2 }
/^# (exit|FAILED)/ { bad[side]++ }
NF >= 2 && $2 ~ /^[-+0-9.eE]+$|^NaN$/ { val[side, idx, $1] = $2 }
END {
    for (i = 1; i <= pairs; i++) if (sha["parent", i] != sha["change", i]) diff++
    printf "# ops_failed parent=%d change=%d; failed runs parent=%d change=%d; inputs_sha256 differs in %d of %d pairs\n",
        failed["parent"], failed["change"], bad["parent"], bad["change"], diff, pairs
    printf "%-20s %-6s %-5s %-40s %-40s %8s %6s %4s %s\n", "metric", "better", "bound",
        "parent median [q1 q3]", "change median [q1 q3]", "delta", "wins", "sep", "in bound"
    for (k = 1; k <= nm; k++) {
        m = order[k]
        np = sorted("parent", m, P); nc = sorted("change", m, C)
        if (np == 0 || nc == 0) { printf "%-20s missing from the runs\n", m; continue }
        pm = at(P, np, 0.5); p1 = at(P, np, 0.25); p3 = at(P, np, 0.75)
        cm = at(C, nc, 0.5); c1 = at(C, nc, 0.25); c3 = at(C, nc, 0.75)
        sgn = better[m] == "lower" ? -1 : 1
        wins = 0
        for (i = 1; i <= pairs; i++)
            if (((("parent", i, m) in val)) && (("change", i, m) in val) && sgn * (val["change", i, m] - val["parent", i, m]) > 0) wins++
        gain = sgn * (cm - pm)
        scale = pm < 0 ? -pm : pm
        delta = scale != 0 ? 100 * (cm - pm) / scale : 0
        worse = scale != 0 ? -gain / scale : (gain < 0 ? 1e300 : 0)
        sep = (gain > p3 - p1) ? "yes" : "no"
        inb = (worse <= bound[m] + 0) ? "yes" : "NO"
        printf "%-20s %-6s %-5s %-40s %-40s %+7.1f%% %3d/%-2d %4s %s\n", m, better[m], bound[m],
            sprintf("%.6g [%.6g %.6g]", pm, p1, p3), sprintf("%.6g [%.6g %.6g]", cm, c1, c3),
            delta, wins, pairs, sep, inb
        printf "    parent:%s\n    change:%s\n", runs("parent", m), runs("change", m)
    }
}' "$root/BENCHMARK.json" $files
