#!/bin/sh
# verify.sh — the full pre-merge gate:
#   tier-1 (build + all tests), vet, a vet and build of the perf
#   harness module against the internal API, the race gate for the
#   concurrent packages, coverage floors, a short fuzz pass over every
#   fuzz target, and a 1-iteration benchmark smoke so every benchmark
#   keeps compiling and running. Ends with the reach gate, which fails
#   the run on an exported function no binary links unless
#   scripts/reach/allow.txt names it, and on a stale allowlist entry.
set -eu
cd "$(dirname "$0")/.."

echo "== tier 1: build + tests"
go build ./...
go test ./...

echo "== vet"
go vet ./...

echo "== perf harness (its own module: go build ./... skips it)"
(cd perf && go vet ./... && go build -o /dev/null .)

echo "== race gate (scripts/gates.sh race)"
./scripts/gates.sh race

echo "== coverage floors"
./scripts/cover.sh

echo "== fuzz smoke (10s per target)"
./scripts/gates.sh fuzz

echo "== fault-plan smoke (ecbench)"
go run ./cmd/ecbench -fault grind > /dev/null

echo "== card-tear smoke (seeded tear -> replay; a lost committed word fails the run)"
# tear.RunSession verifies every committed word against the recovered
# device, so a torn grid cell completing at all is the recovery check.
tearout=$(go run ./cmd/ecbench -tear none,tear-mid -journal word-eager,page-lazy)
echo "$tearout" | head -3
echo "$tearout" | grep -q " true " || {
	echo "verify: tear grid produced no torn cell" >&2; exit 1; }
go run ./cmd/jcexplore -layer 1 -workload wallet -tear tear-mid -journal word-eager \
	| grep -q "tear-mid/word-eager" || {
	echo "verify: jcexplore tear axis rows missing" >&2; exit 1; }

echo "== multi-fidelity smoke (jcexplore -fidelity confirm)"
mf=$(go run ./cmd/jcexplore -fidelity confirm -workload arith-loop | head -1)
echo "$mf"
screened=$(echo "$mf" | sed -n 's/.*screened \([0-9]*\).*/\1/p')
confirmed=$(echo "$mf" | sed -n 's/.*confirmed \([0-9]*\).*/\1/p')
if [ -z "$screened" ] || [ -z "$confirmed" ] || \
   [ "$confirmed" -le 0 ] || [ "$screened" -le "$confirmed" ]; then
	echo "verify: multi-fidelity smoke wants screened > confirmed > 0, got screened=$screened confirmed=$confirmed" >&2
	exit 1
fi

echo "== arbitration smoke (jcexplore -arb, both policies)"
arbout=$(go run ./cmd/jcexplore -arb fixed,rr -workload stack-churn -layer 1)
echo "$arbout" | head -4
for pol in fixed rr; do
	echo "$arbout" | grep -q "/$pol\b" || {
		echo "verify: arbitration smoke missing $pol rows" >&2; exit 1; }
done

echo "== axis rule smoke (jcexplore refuses a tear plan at layer 3, an unknown name on every axis flag and a negative worker count with exit 2, without a panic)"
jcdir=$(mktemp -d)
go build -o "$jcdir/jcexplore" ./cmd/jcexplore
for args in "-layer 3 -tear tear-mid" "-faults bogus" "-arb bogus" "-tear bogus" "-journal bogus" "-workers -1"; do
	rc=0
	# shellcheck disable=SC2086 # word-split the flag pair
	"$jcdir/jcexplore" $args > /dev/null 2> "$jcdir/stderr" || rc=$?
	# An unrecovered Go panic also exits 2, so a refusal must not panic.
	if [ "$rc" -ne 2 ] || grep -q 'panic:' "$jcdir/stderr"; then
		sed 's/^/  /' "$jcdir/stderr" >&2
		rm -rf "$jcdir"
		echo "verify: jcexplore $args exited $rc, want 2 without a panic" >&2; exit 1
	fi
done
rm -rf "$jcdir"

echo "== cluster smoke (2 nodes, SIGKILL one mid-sweep)"
tmpd=$(mktemp -d)
A_PID=""; B_PID=""; C_PID=""
trap 'kill -9 $A_PID $B_PID $C_PID 2>/dev/null || true; rm -rf "$tmpd"' EXIT
go build -o "$tmpd/ecserved" ./cmd/ecserved
SWEEP='{"layers":[1],"workloads":["arith-loop","stack-churn"]}'

scrape_url() { # scrape_url <logfile>
	for _ in $(seq 1 100); do
		url=$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' "$1")
		[ -n "$url" ] && { echo "$url"; return 0; }
		sleep 0.1
	done
	echo "verify: no listen line in $1" >&2
	return 1
}

# Single-node reference bytes.
"$tmpd/ecserved" -addr 127.0.0.1:0 -workers 2 > "$tmpd/c.log" 2>&1 &
C_PID=$!
C_URL=$(scrape_url "$tmpd/c.log")
curl -sS -X POST -d "$SWEEP" "$C_URL/v1/sweep" -o "$tmpd/ref.ndjson"
kill "$C_PID" 2>/dev/null || true

# Two-node cluster: B plain, A peering with B (A coordinates; A only
# needs to reach B for work stealing).
"$tmpd/ecserved" -addr 127.0.0.1:0 -workers 2 > "$tmpd/b.log" 2>&1 &
B_PID=$!
B_URL=$(scrape_url "$tmpd/b.log")
"$tmpd/ecserved" -addr 127.0.0.1:0 -workers 2 -peers "$B_URL" > "$tmpd/a.log" 2>&1 &
A_PID=$!
A_URL=$(scrape_url "$tmpd/a.log")

# Sweep through A; SIGKILL B mid-flight. The work-stealing loop must
# requeue whatever B held and still assemble the identical bytes.
curl -sS -X POST -d "$SWEEP" "$A_URL/v1/sweep" -o "$tmpd/got.ndjson" &
CURL_PID=$!
sleep 0.3
kill -9 "$B_PID" 2>/dev/null || true
wait "$CURL_PID"
if ! cmp -s "$tmpd/ref.ndjson" "$tmpd/got.ndjson"; then
	echo "verify: cluster sweep bytes differ from single-node reference" >&2
	diff "$tmpd/ref.ndjson" "$tmpd/got.ndjson" | head -5 >&2
	exit 1
fi
# A must keep serving (and now replay the assembled body from cache).
curl -sS -X POST -d "$SWEEP" "$A_URL/v1/sweep" -o "$tmpd/again.ndjson"
cmp -s "$tmpd/ref.ndjson" "$tmpd/again.ndjson" || {
	echo "verify: cluster replay after peer death differs" >&2; exit 1; }
kill "$A_PID" 2>/dev/null || true
echo "cluster smoke: OK (bytes identical, survivor kept serving)"

echo "== benchmark smoke (1 iteration each)"
go test -run '^$' -bench . -benchtime 1x ./... > /dev/null

echo "== bench table smoke (bench.sh, 1 iteration)"
BENCHTIME=1x BENCH_OUT=/tmp/bench_smoke.json ./scripts/bench.sh > /dev/null

echo "== reach gate (scripts/reach.sh: every exported function linked or allowlisted)"
./scripts/reach.sh

echo "verify: OK"
