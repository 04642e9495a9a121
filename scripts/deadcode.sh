#!/usr/bin/env sh
# Lists the functions that no binary links. It builds every main package
# (cmd/*, examples/* and the perfbench module) with inlining off, so each
# called function keeps its own symbol, and reads their text symbols with
# `go tool nm`. Every top-level func declared in a non-test file of a
# non-main package (testdata/ is never a package) that matches none of
# those symbols is unlinked. Generic functions and methods match by name,
# with their type arguments dropped.
#
# It prints each unlinked function, package by package in declaration
# order, with its line count (doc comment plus body) and a total. It exits
# 1 if an unlinked function is missing from scripts/deadcode.allow, or if
# an allow entry is linked now or declared nowhere. Each allow line names a
# function as this script prints it, then gives a one-line reason to keep
# it.
#
# Usage: scripts/deadcode.sh
set -eu
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
# shellcheck disable=SC2086 # one argument per package
go build -gcflags=all=-l -o "$tmpdir/bin/" $mains
go -C perfbench build -gcflags=all=-l -o "$tmpdir/bin/perfbench" .
for bin in "$tmpdir"/bin/*; do
	go tool nm "$bin"
done | awk '$2 == "T" || $2 == "t" { print $3 }' | sort -u >"$tmpdir/symbols"

# One line per non-main package: its import path, its directory, then its
# non-test Go files for this platform, tab-separated.
go list -f '{{if ne .Name "main"}}{{.ImportPath}}	{{.Dir}}{{range .GoFiles}}	{{.}}{{end}}{{end}}' ./... >"$tmpdir/packages"

awk -v symbols="$tmpdir/symbols" -v allowfile=scripts/deadcode.allow '
# nogeneric drops every bracketed type-argument list from a name.
function nogeneric(s,    out, depth, i, c) {
	out = ""
	depth = 0
	for (i = 1; i <= length(s); i++) {
		c = substr(s, i, 1)
		if (c == "[") {
			depth++
		} else if (c == "]") {
			depth--
		} else if (depth == 0) {
			out = out c
		}
	}
	return out
}

# declare parses a func line of package pkg into fn, its symbol name:
# pkg.Name, pkg.T.Name or pkg.(*T).Name.
function declare(pkg, line,    rest, recv, n, f, name) {
	rest = substr(line, 6)
	recv = ""
	if (substr(rest, 1, 1) == "(") {
		recv = substr(rest, 2, index(rest, ")") - 2)
		rest = substr(rest, index(rest, ")") + 1)
		sub(/^ +/, "", rest)
		n = split(recv, f, " ")
		recv = nogeneric(f[n])
	}
	match(rest, /^[A-Za-z0-9_]+/)
	name = substr(rest, 1, RLENGTH)
	if (recv == "") {
		fn = pkg "." name
	} else if (substr(recv, 1, 1) == "*") {
		fn = pkg ".(" recv ")." name
	} else {
		fn = pkg "." recv "." name
	}
}

# record counts fn as declared, and as dead with its doc-plus-body lines
# if no binary links it.
function record(lines) {
	declared[fn] = 1
	if (fn in linked) {
		return
	}
	dead[++ndead] = fn
	deadlines[fn] = lines
}

BEGIN {
	FS = "\t"
	while ((getline sym < symbols) > 0) {
		sym = nogeneric(sym)
		linked[sym] = 1
		if (sub(/\.init\.[0-9]+$/, ".init", sym)) {
			linked[sym] = 1
		}
	}
	while ((getline line < allowfile) > 0) {
		if (line ~ /^[ \t]*(#|$)/) {
			continue
		}
		split(line, f, /[ \t]+/)
		allowed[f[1]] = 1
		allow[++nallow] = f[1]
		if (line !~ /^[^ \t]+[ \t]+[^ \t]/) {
			printf "deadcode: %s: %s gives no reason\n", allowfile, f[1] > "/dev/stderr"
			bad = 1
		}
	}
}

{
	for (i = 3; i <= NF; i++) {
		path = $2 "/" $i
		doc = 0
		lineno = 0
		start = 0
		while ((getline line < path) > 0) {
			lineno++
			if (start) {
				if (line == "}") {
					record(doc + lineno - start + 1)
					start = 0
					doc = 0
				}
			} else if (line ~ /^func /) {
				declare($1, line)
				if (line ~ /}$/) {
					record(doc + 1)
					doc = 0
				} else {
					start = lineno
				}
			} else if (line ~ /^\/\//) {
				doc++
			} else {
				doc = 0
			}
		}
		close(path)
	}
}

END {
	total = 0
	print "lines  function linked into no binary (doc comment + body)"
	for (i = 1; i <= ndead; i++) {
		fn = dead[i]
		total += deadlines[fn]
		printf "%5d  %s%s\n", deadlines[fn], fn, (fn in allowed) ? "" : "  (not allowed)"
	}
	printf "total: %d functions, %d lines\n", ndead, total
	for (i = 1; i <= ndead; i++) {
		if (!(dead[i] in allowed)) {
			printf "deadcode: %s is linked into no binary; delete it, or add it to %s with a reason\n", dead[i], allowfile > "/dev/stderr"
			bad = 1
		}
	}
	for (i = 1; i <= nallow; i++) {
		fn = allow[i]
		if (!(fn in declared)) {
			printf "deadcode: %s names %s, which is declared nowhere; remove the entry\n", allowfile, fn > "/dev/stderr"
			bad = 1
		} else if (!(fn in deadlines)) {
			printf "deadcode: %s names %s, which a binary links now; remove the entry\n", allowfile, fn > "/dev/stderr"
			bad = 1
		}
	}
	exit bad
}
' "$tmpdir/packages"
