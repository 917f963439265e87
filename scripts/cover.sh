#!/bin/sh
# cover.sh — per-package coverage floors for the packages whose tests
# carry the observability, fault-injection and batched-equivalence
# contracts. Prints every package's line, fails if any floored
# package is below its floor.
set -eu
cd "$(dirname "$0")/.."

# pkg:floor pairs, floor in whole percent.
FLOORS="
repro/internal/metrics:70
repro/internal/fault:70
repro/internal/checker:70
repro/internal/batch:70
repro/internal/tlm3:70
repro/internal/calib:70
repro/internal/cluster:70
repro/internal/arb:70
repro/internal/dma:70
repro/internal/apdu:70
repro/internal/journal:70
repro/internal/tear:70
repro/internal/serve:70
repro/internal/explore:70
repro/internal/core:70
repro/internal/tlm2:70
repro/internal/platform:70
"

# shellcheck disable=SC2046 # word-split the package list
out=$(go test -cover $(for spec in $FLOORS; do echo "${spec%:*}"; done))
echo "$out"

fail=0
for spec in $FLOORS; do
	pkg=${spec%:*}
	floor=${spec#*:}
	line=$(echo "$out" | grep "	$pkg	" || true)
	if [ -z "$line" ]; then
		echo "cover: no result for $pkg" >&2
		fail=1
		continue
	fi
	pct=$(echo "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "cover: no coverage figure for $pkg" >&2
		fail=1
		continue
	fi
	# Integer compare on the whole-percent part is enough for a floor.
	whole=${pct%%.*}
	if [ "$whole" -lt "$floor" ]; then
		echo "cover: $pkg at $pct% is below the $floor% floor" >&2
		fail=1
	fi
done
[ "$fail" -eq 0 ] && echo "cover: OK"
exit "$fail"
