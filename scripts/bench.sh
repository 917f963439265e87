#!/bin/sh
# bench.sh — the estimation-throughput benchmark table: the Table-3
# model-throughput family, the BatchCorpus whole-corpus campaign
# family (serial reference vs batched engine across lane widths and
# memory organizations) and the multi-fidelity sweep family (analytic
# per-config screening, screened-pruned-confirmed sweep vs exhaustive
# sweep on the enlarged design space), the cluster cached-hit
# serving family (1-node vs 2-node replay throughput) and the
# card-tear session family (torn session + power-up replay per
# journaling strategy), and the cold layer-3 calibration
# (internal/explore BenchmarkCalibrateCold, the fit every fresh
# jcexplore or ecserved process pays before its first screened sweep),
# with a machine-readable JSON table emitted alongside the usual go
# test output.
#
#   BENCHTIME=20x ./scripts/bench.sh       # per-benchmark time/iterations
#   BENCH_OUT=path.json ./scripts/bench.sh # where the JSON table goes;
#       the default, $TMPDIR/bench.json, is outside the tree, so a plain
#       run never overwrites a committed BENCH_*.json
#   BENCH_RE='BenchmarkSweep' ./scripts/bench.sh  # benchmark selection
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-10x}"
BENCH_OUT="${BENCH_OUT:-${TMPDIR:-/tmp}/bench.json}"
BENCH_RE="${BENCH_RE:-BenchmarkTable3_|BenchmarkBatchCorpus_|BenchmarkScreenConfig|BenchmarkSweepMultiFidelity|BenchmarkSweepExhaustive|BenchmarkClusterCached|BenchmarkTearSession|BenchmarkCalibrateCold}"

out=$(go test -run '^$' -bench "$BENCH_RE" \
	-benchtime "$BENCHTIME" -benchmem . ./internal/explore)
echo "$out"

echo "$out" | awk -v outfile="$BENCH_OUT" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = "null"; kts = "null"; allocs = "null"; ests = "null"
	screened = "null"; pruned = "null"; confirmed = "null"; screenus = "null"
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "kT/s") kts = $i
		if ($(i + 1) == "allocs/op") allocs = $i
		if ($(i + 1) == "ests/s") ests = $i
		if ($(i + 1) == "screened") screened = $i
		if ($(i + 1) == "pruned") pruned = $i
		if ($(i + 1) == "confirmed") confirmed = $i
		if ($(i + 1) == "screen_us/config") screenus = $i
	}
	row = sprintf("  {\"name\": \"%s\", \"ns_per_op\": %s, \"kt_per_s\": %s, \"allocs_per_op\": %s",
		name, ns, kts, allocs)
	if (screened != "null")
		row = row sprintf(", \"screened\": %s, \"pruned\": %s, \"confirmed\": %s, \"screen_us_per_config\": %s",
			screened, pruned, confirmed, screenus)
	if (ests != "null")
		row = row sprintf(", \"ests_per_s\": %s", ests)
	if (name == "BenchmarkSweepExhaustive") exhaustive_ns = ns
	if (name == "BenchmarkSweepMultiFidelity") multifi_ns = ns
	rows[++n] = row "}"
}
END {
	print "[" > outfile
	for (i = 1; i <= n; i++) print rows[i] (i < n ? "," : "") >> outfile
	print "]" >> outfile
	if (exhaustive_ns != "" && multifi_ns != "" && multifi_ns + 0 > 0)
		printf "bench: multi-fidelity speedup %.1fx over exhaustive\n", exhaustive_ns / multifi_ns
}
'
echo "bench: wrote $BENCH_OUT"
