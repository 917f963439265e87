#!/bin/sh
# gates.sh race|fuzz — the race gate and the fuzz smoke. make race,
# make fuzz and verify.sh all run them from here, so the package list
# and the fuzz-target list each live in one place.
#   race: go test -race over the concurrent packages
#   fuzz: every fuzz target for 10s each
set -eu
cd "$(dirname "$0")/.."

RACE_PKGS="./internal/explore/... ./internal/sim/... ./internal/fault/... ./internal/serve/...
./internal/batch/... ./internal/tlm3/... ./internal/calib/... ./internal/cluster/... ./internal/arb/...
./internal/dma/... ./internal/crypto/... ./internal/tear/... ./internal/journal/..."

# package:target pairs under internal/.
FUZZ_TARGETS="fault:FuzzPlanParse fault:FuzzWithoutReadErrors checker:FuzzCheckerRules arb:FuzzArbiterGrant"

case "${1:-}" in
race)
	# shellcheck disable=SC2086 # word-split the package list
	go test -race $RACE_PKGS
	;;
fuzz)
	for t in $FUZZ_TARGETS; do
		go test -run '^$' -fuzz "^${t#*:}\$" -fuzztime 10s "./internal/${t%%:*}/"
	done
	;;
*)
	echo "usage: gates.sh race|fuzz" >&2
	exit 2
	;;
esac
