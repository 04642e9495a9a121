#!/usr/bin/env sh
# Counts the module's non-test Go lines — every *.go file except *_test.go,
# outside perfbench/ and testdata/ directories — at a base revision and in
# the working tree (tracked and untracked, not ignored files), and prints
# the difference. Each change reports this number.
#
# Usage: scripts/loc.sh [base]   base defaults to HEAD
set -eu
cd "$(dirname "$0")/.."
base="${1:-HEAD}"

nontest_go() {
	grep '\.go$' | grep -v '_test\.go$' | grep -v '^perfbench/' | grep -v '\(^\|/\)testdata/' || true
}

before=$(git ls-tree -r --name-only "$base" | nontest_go |
	while read -r f; do git show "$base:$f"; done | wc -l)
after=$(git ls-files --cached --others --exclude-standard | nontest_go |
	while read -r f; do if [ -f "$f" ]; then cat "$f"; fi; done | wc -l)

echo "non-test Go lines at $base: $before"
echo "non-test Go lines in working tree: $after"
echo "difference: $((after - before))"
