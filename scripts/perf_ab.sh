#!/usr/bin/env bash
# A/B benchmark: the perfbench of a base revision against the working tree.
#
#   scripts/perf_ab.sh <rev> <workload> [pairs=10] [seconds=5]
#
# Builds <rev>'s perfbench in a git worktree under target/perf_ab/<sha>/
# (remove it with `git worktree remove`), builds the working tree's
# perfbench, then runs `pairs` pairs of one base and one change run at
# seed 0 and 2 workers, swapping which side runs first every pair. The
# host is noisy, so only alternating pairs make a before/after claim.
#
# Prints each pair's trials_per_s, the median of every end-to-end metric on
# each side, the base's interquartile range of trials_per_s, and how many
# pairs the change won on trials_per_s. A gain is claimed only when the
# change wins at least 9 of 10 pairs and the median gap exceeds the base's
# interquartile range. Exits
# non-zero if any run's last line lacks "failed":0 (the oracle rejected a
# campaign digest).
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
# The worktree stays: perfbench reads the zoo from its own source tree.
src="$out/src"
if [[ ! -d "$src" ]]; then
    git worktree prune
    git worktree add --detach "$src" "$sha" >/dev/null
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
    won="$(awk -v b="$b" -v c="$c" 'BEGIN { print (c > b) ? 1 : 0 }')"
    wins=$((wins + won))
    printf 'pair %2d  trials_per_s  base %10.1f  change %10.1f  %s\n' \
        "$i" "$b" "$c" "$([[ $won == 1 ]] && echo won || echo lost)"
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
echo "change won $wins of $pairs pairs on trials_per_s"
