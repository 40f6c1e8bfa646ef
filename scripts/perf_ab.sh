#!/usr/bin/env bash
# A/B benchmark: the perfbench of a base revision against the working tree.
#
#   scripts/perf_ab.sh <rev> <workload> [pairs=10] [seconds=5]
#
# Extracts <rev> with `git archive` under target/perf_ab/<sha>/src and
# builds its perfbench there, builds the working tree's perfbench, then
# runs `pairs` pairs of one base and one change run at seed 0 and 2
# workers, swapping which side runs first every pair. The host is noisy,
# so only alternating pairs make a before/after claim.
#
# Prints each pair's trials_per_s, the median of every metric on each
# side, the base's interquartile range of trials_per_s and the pairs the
# change won and lost (ties count for neither). Then one line per
# end-to-end metric of BENCHMARK.json: change/base of the medians against
# the metric's bound, marked "within bound", "regressed" (worse than base
# by more than the bound) or "unresolved" (the base's own interquartile
# range, relative to its median, is wider than the bound). The last line
# states the verdict on trials_per_s: "claim met" when the change won at
# least 9 in 10 pairs and its median beats the base's by more than the
# base's interquartile range, "claim not met" otherwise. Exits non-zero
# if any run's last line lacks "failed":0 (the oracle rejected a campaign
# digest).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: $0 <rev> <workload> [pairs] [seconds]" >&2
    exit 2
fi
rev="$1"
workload="$2"
pairs="${3:-10}"
seconds="${4:-5}"

sha="$(git rev-parse --verify "$rev^{commit}")"
root="$PWD"
out="$root/target/perf_ab/$sha"
# The extracted tree stays: perfbench reads the zoo from its own source.
src="$out/src"
if [[ ! -d "$src" ]]; then
    mkdir -p "$src"
    git archive "$sha" | tar -x -C "$src"
fi
CARGO_TARGET_DIR="$out/target" cargo build --quiet --release --offline \
    --manifest-path "$src/perfbench/Cargo.toml"
base_bin="$out/target/release/nlft-perfbench"
cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml
change_bin="$root/perfbench/target/release/nlft-perfbench"

logs="$out/runs"
mkdir -p "$logs"
run() { # <side> <binary> <pair>
    local line
    line="$("$2" --workload "$workload" --seed 0 --seconds "$seconds" --trace 0 | tail -n 1)"
    echo "$line" >"$logs/$1.$3.json"
    if [[ "$line" != *'"failed":0'* ]]; then
        echo "$1 run $3 failed the oracle: $line" >&2
        exit 1
    fi
}
# `metric <json file> <name>` prints the metric's value.
metric() {
    grep -o "\"$2\":{\"value\":[^,}]*" "$1" | sed 's/.*"value"://'
}
median() {
    sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

# `quartiles` prints the first and third quartile of stdin (linear
# interpolation between order statistics).
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,  h, l) { h = 1 + (NR - 1) * p; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
        END { print q(0.25), q(0.75) }'
}

wins=0
losses=0
echo "$workload: base ${sha:0:12} vs working tree, $pairs pairs of ${seconds}s"
for ((i = 1; i <= pairs; i++)); do
    # Swap which side runs first every pair.
    if ((i % 2)); then
        run base "$base_bin" "$i"
        run change "$change_bin" "$i"
    else
        run change "$change_bin" "$i"
        run base "$base_bin" "$i"
    fi
    b="$(metric "$logs/base.$i.json" trials_per_s)"
    c="$(metric "$logs/change.$i.json" trials_per_s)"
    verdict="$(awk -v b="$b" -v c="$c" 'BEGIN { print (c > b) ? "won" : (c < b) ? "lost" : "tied" }')"
    case "$verdict" in
        won) wins=$((wins + 1)) ;;
        lost) losses=$((losses + 1)) ;;
    esac
    printf 'pair %2d  trials_per_s  base %10.1f  change %10.1f  %s\n' "$i" "$b" "$c" "$verdict"
done

names="$(grep -o '"[a-z0-9_]*":{"value"' "$logs/base.1.json" | cut -d'"' -f2)"
for name in $names; do
    mb="$(for ((i = 1; i <= pairs; i++)); do metric "$logs/base.$i.json" "$name"; done | median)"
    mc="$(for ((i = 1; i <= pairs; i++)); do metric "$logs/change.$i.json" "$name"; done | median)"
    printf 'median %-14s base %14.6g  change %14.6g  change/base %.3f\n' \
        "$name" "$mb" "$mc" "$(awk -v b="$mb" -v c="$mc" 'BEGIN { print (b != 0) ? c / b : 0 }')"
done
read -r q1 q3 < <(for ((i = 1; i <= pairs; i++)); do metric "$logs/base.$i.json" trials_per_s; done | quartiles)
printf 'base trials_per_s interquartile range %.1f .. %.1f (%.1f)\n' "$q1" "$q3" "$(awk -v a="$q1" -v b="$q3" 'BEGIN { print b - a }')"
echo "change won $wins and lost $losses of $pairs pairs on trials_per_s"

# `end_to_end` prints "<name> <better> <bound>" for every end-to-end metric
# BENCHMARK.json declares, one per line.
end_to_end() {
    awk '/"end_to_end"/ { on = 1; next } on && /\]/ { exit } on' BENCHMARK.json |
        sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.eE+-]*\).*/\1 \2 \3/p'
}
while read -r name better bound; do
    mb="$(for ((i = 1; i <= pairs; i++)); do metric "$logs/base.$i.json" "$name"; done | median)"
    mc="$(for ((i = 1; i <= pairs; i++)); do metric "$logs/change.$i.json" "$name"; done | median)"
    read -r b1 b3 < <(for ((i = 1; i <= pairs; i++)); do metric "$logs/base.$i.json" "$name"; done | quartiles)
    awk -v n="$name" -v better="$better" -v bound="$bound" -v mb="$mb" -v mc="$mc" -v q1="$b1" -v q3="$b3" 'BEGIN {
        ratio = (mb != 0) ? mc / mb : 1
        spread = (mb != 0) ? (q3 - q1) / mb : 0
        worse = (better == "higher") ? 1 - ratio : ratio - 1
        mark = (spread > bound) ? "unresolved" : (worse > bound) ? "regressed" : "within bound"
        printf "end-to-end %-14s change/base %.3f  bound %.2f  base spread %.3f  %s\n", n, ratio, bound, spread, mark
    }'
done < <(end_to_end)

# The claim rule on trials_per_s: at least 9 wins in 10 pairs, and a median
# gain wider than the base's interquartile range.
mb="$(for ((i = 1; i <= pairs; i++)); do metric "$logs/base.$i.json" trials_per_s; done | median)"
mc="$(for ((i = 1; i <= pairs; i++)); do metric "$logs/change.$i.json" trials_per_s; done | median)"
awk -v w="$wins" -v n="$pairs" -v mb="$mb" -v mc="$mc" -v q1="$q1" -v q3="$q3" 'BEGIN {
    met = (w * 10 >= 9 * n) && (mc - mb > q3 - q1)
    printf "%s: won %d of %d pairs (need 9 in 10), median gap %.1f vs base interquartile range %.1f\n",
        met ? "claim met" : "claim not met", w, n, mc - mb, q3 - q1
}'
