package bench

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gatepower"
)

// The serving layer's view of the bench runners: a named transaction
// corpus driven into one abstraction level under a fault plan, with the
// energy figure returned as raw joules. The run is fully deterministic
// — same corpus, layer and plan always produce the same IEEE-754 bit
// pattern — which is what makes content-addressed result caching sound.

// Corpora names the transaction corpora an estimation request may ask
// for: the EC verification corpus and the parameterized back-to-back
// Table-3 performance corpus.
var Corpora = []string{"verification", "perf"}

// DefaultPerfN is the perf-corpus transaction count used when a
// request leaves it unset — the fault-table and metrics-report size.
const DefaultPerfN = 256

// CorpusItems builds the named corpus over the reference two-slave
// layout. n sizes the perf corpus (<= 0 selects DefaultPerfN) and is
// ignored for the fixed verification corpus.
func CorpusItems(name string, n int) ([]core.Item, error) {
	switch name {
	case "verification":
		return core.VerificationCorpus(lay), nil
	case "perf":
		if n <= 0 {
			n = DefaultPerfN
		}
		return core.PerfCorpus(lay, n), nil
	default:
		return nil, CheckCorpus(name)
	}
}

// CheckCorpus reports whether name is in Corpora with the error
// CorpusItems would answer, without generating the corpus.
func CheckCorpus(name string) error {
	if slices.Contains(Corpora, name) {
		return nil
	}
	return fmt.Errorf("bench: unknown corpus %q (valid corpora: %s)",
		name, strings.Join(Corpora, ", "))
}

// CorpusEstimate is the outcome of one corpus × layer × fault-plan
// run. EnergyJ carries the estimator's raw joule total; consumers that
// cache or compare results must do so on its bit pattern.
type CorpusEstimate struct {
	Layer   int
	Cycles  uint64
	EnergyJ float64
	Errors  int
	Retries int
}

// RunCorpusEstimate drives the named corpus into a fresh bus of the
// given layer (0 = gate level, 1 = TL1, 2 = TL2) under the fault plan
// with the bench retry policy. It is safe to call concurrently: every
// run builds a private kernel, bus and injector.
func RunCorpusEstimate(layer int, corpus string, n int, plan fault.Plan) (CorpusEstimate, error) {
	if layer < 0 || layer > 2 {
		return CorpusEstimate{}, fmt.Errorf("bench: unsupported layer %d (valid layers: 0, 1, 2)", layer)
	}
	items, err := CorpusItems(corpus, n)
	if err != nil {
		return CorpusEstimate{}, err
	}
	if layer <= 1 && !core.Reference() {
		// Layers 0 and 1 run through the batched engine at width 1 —
		// bit-identical to the kernel path by the golden gate, and the
		// single code path the batched campaigns scale up from. The
		// reference toggle forces the original kernel-driven run.
		eng, err := batch.New(orgBatchConfig(layer, 1, plan, OrgSRAM))
		if err != nil {
			return CorpusEstimate{}, err
		}
		res, err := eng.EstimateAll([]batch.Run{{Items: items}})
		if err != nil {
			return CorpusEstimate{}, err
		}
		r := res[0]
		return CorpusEstimate{
			Layer:   layer,
			Cycles:  r.Cycles,
			EnergyJ: r.EnergyJ,
			Errors:  r.Errors,
			Retries: r.Retries,
		}, nil
	}
	var char gatepower.CharTable
	if layer > 0 {
		char = CharTable()
	}
	return runCorpus(layer, items, newOrgFaultMap(OrgSRAM, plan), true, char, FaultRetry, nil)
}
