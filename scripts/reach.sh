#!/bin/sh
# reach.sh — the reach gate: every exported function and method under
# internal/ must be linked by a binary or listed, with its reason, in
# scripts/reach/allow.txt. Builds every cmd/ and examples/ main plus the
# perf harness with inlining off (-gcflags=all=-l, so a function the
# compiler would inline still shows up as a symbol), then lists each
# unreached declaration with file:line, body lines and whether the
# allowlist covers it, and the totals (scripts/reach). Exits non-zero on
# an unreached declaration the allowlist does not name, or on a stale
# entry (one that now names a linked or deleted symbol).
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
