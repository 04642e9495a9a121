#!/usr/bin/env bash
# Runs one perfbench workload on a base revision and on the working tree in
# alternated pairs, and summarizes every end-to-end metric BENCHMARK.json
# declares: each side's quartiles and median, and how many pairs the
# working tree won.
#
# The base is extracted with git archive into a temporary directory, and
# the working tree's files (tracked and untracked, not ignored) are copied
# beside it, so neither side builds in a git checkout (go stamps VCS
# information into such a build) or from a warm build cache. Each side
# runs its own tree's perfbench/run.sh from that tree's root, so each
# builds its own perfbench. Pairs alternate which side runs first
# (base-head, then head-base), and every run gets a fresh empty --workdir,
# so no run inherits another's server data, journals or temporary files.
# A pair is won when the working tree's value is better in the metric's
# declared direction; ties count for neither side. "gain" says yes when
# the working tree won at least nine pairs in ten and its median is better
# than the base's by more than the base's interquartile range.
#
# Usage: scripts/perfpair.sh <base-rev> <workload> <seed> <pairs> <seconds>
#   e.g. scripts/perfpair.sh HEAD server-mixed 1 5 20
# Needs git, tar and jq. Each run's JSON line goes to stderr as it comes,
# prefixed with "pair <n> <side>", and the summary table to stdout.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 5 ]; then
	echo "usage: scripts/perfpair.sh <base-rev> <workload> <seed> <pairs> <seconds>" >&2
	exit 2
fi
base=$1 workload=$2 seed=$3 pairs=$4 seconds=$5
command -v jq >/dev/null || {
	echo "perfpair: jq is required" >&2
	exit 2
}
rev=$(git rev-parse --short "$base^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/head"
git archive "$rev" | tar -x -C "$tmp/base"
git ls-files -co --exclude-standard | while read -r f; do
	if [ -e "$f" ]; then echo "$f"; fi
done | tar -cf - -T - | tar -x -C "$tmp/head"

# run <side> <pair>: one perfbench run of that side's tree; its JSON line
# (the last line perfbench prints) is appended to $tmp/<side>.jsonl.
run() {
	local side=$1 pair=$2 tree=$tmp/$1 work=$tmp/work-$2-$1
	mkdir "$work"
	(cd "$tree" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 --workdir "$work") >"$tmp/out.txt"
	rm -rf "$work"
	tail -n 1 "$tmp/out.txt" | tee -a "$tmp/$side.jsonl" | sed "s/^/pair $pair $side /" >&2
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run base "$i"
		run head "$i"
	else
		run head "$i"
		run base "$i"
	fi
done

echo "$workload seed $seed: $pairs pairs of ${seconds}-s runs, base $rev against the working tree"
jq -n -r --slurpfile b "$tmp/base.jsonl" --slurpfile h "$tmp/head.jsonl" --slurpfile spec BENCHMARK.json '
	# q(p): the p-quantile, interpolated between the closest ranks.
	def q(p): sort as $s | ((($s | length) - 1) * p) as $x | ($x | floor) as $i |
		$s[$i] + ($x - $i) * (($s[[$i + 1, ($s | length) - 1] | min]) - $s[$i]);
	"failed ops: base \([$b[].failed] | add) of \([$b[].attempted] | add), head \([$h[].failed] | add) of \([$h[].attempted] | add)",
	(["metric", "better", "base_q1", "base_med", "base_q3", "head_q1", "head_med", "head_q3", "head_won", "gain"] | @tsv),
	($spec[0].end_to_end[] | .name as $m | .better as $dir |
		[$b[].metrics[$m].value] as $bv | [$h[].metrics[$m].value] as $hv |
		select(all($bv[], $hv[]; . != null)) |
		(if $dir == "lower" then -1 else 1 end) as $sign |
		[range(0; $bv | length) | select(($hv[.] - $bv[.]) * $sign > 0)] as $won |
		((($hv | q(0.5)) - ($bv | q(0.5))) * $sign > ($bv | q(0.75)) - ($bv | q(0.25))) as $wide |
		[$m, $dir, ($bv | q(0.25)), ($bv | q(0.5)), ($bv | q(0.75)),
			($hv | q(0.25)), ($hv | q(0.5)), ($hv | q(0.75)),
			"\($won | length)/\($bv | length)",
			(if ($won | length) * 10 >= 9 * ($bv | length) and $wide then "yes" else "no" end)] | @tsv)
' | awk -F '\t' 'NR == 1 { print; next }
	{ printf "%-16s %-7s", $1, $2
	  for (i = 3; i <= 8; i++) printf (NR == 2 ? " %10s" : " %10.4g"), $i
	  printf " %9s %5s\n", $9, $10 }'
