#!/bin/sh
# reach.sh — list the exported functions and methods under internal/
# that no binary links. Builds every cmd/ and examples/ main plus the
# perf harness with inlining off (-gcflags=all=-l, so a function the
# compiler would inline still shows up as a symbol), then prints each
# unreached declaration with file:line and body lines, and the totals
# (scripts/reach). A report, not a gate.
set -eu
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
for d in cmd/*/ examples/*/; do
	d=${d%/}
	go build -gcflags=all=-l -o "$bin/$(echo "$d" | tr / -)" "./$d"
done
(cd perf && go build -gcflags=all=-l -o "$bin/perf" .)
go run ./scripts/reach "$bin"/*
