package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gatepower"
	"repro/internal/metrics"
	"repro/internal/platform"
)

// layerName renders the registry layer label for a bus model level.
func layerName(layer int) string { return fmt.Sprintf("L%d", layer) }

// runMetered is the fault harness run with the observability layer
// attached everywhere it plugs in: the bus, the energy meter, the fault
// injectors, the script master and the kernel. It returns the run's
// final metrics snapshot.
func runMetered(layer int, items []core.Item, char gatepower.CharTable, plan fault.Plan) (metrics.Snapshot, error) {
	reg := metrics.New(layerName(layer))
	bmap := faultMap(plan, reg, platform.RefMap().Slaves()...)
	if _, err := runCorpus(layer, items, bmap, true, char, FaultRetry, reg); err != nil {
		return metrics.Snapshot{}, err
	}
	return reg.Snapshot(), nil
}

// MetricsReport renders the observability breakdown of the 256-transaction
// perf corpus at every abstraction level, followed — when planName is an
// active plan — by each layer's clean-vs-fault metrics diff.
func MetricsReport(planName string) (string, error) {
	plan, ok := fault.Named(planName)
	if !ok {
		return "", fmt.Errorf("bench: unknown fault plan %q (have %v)", planName, fault.Names)
	}
	char := CharTable()
	items := func() []core.Item { return core.PerfCorpus(lay, 256) }

	var sb strings.Builder
	sb.WriteString("Metrics report: 256-transaction perf corpus\n\n")
	clean := make([]metrics.Snapshot, 3)
	for layer := 0; layer <= 2; layer++ {
		s, err := runMetered(layer, items(), char, fault.Plan{})
		if err != nil {
			return "", err
		}
		clean[layer] = s
		sb.WriteString(s.Table())
		sb.WriteString("\n")
	}
	if !plan.Empty() {
		for layer := 0; layer <= 2; layer++ {
			s, err := runMetered(layer, items(), char, plan)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%s clean vs %q:\n", layerName(layer), planName)
			sb.WriteString(metrics.Diff(clean[layer], s))
			sb.WriteString("\n")
		}
	}
	return sb.String(), nil
}
