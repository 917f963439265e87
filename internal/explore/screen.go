package explore

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/gatepower"
	"repro/internal/javacard"
	"repro/internal/metrics"
	"repro/internal/tlm3"
)

// AnalyticTargetLayer is the timed layer the analytic model's layer-3
// predictions target: the calibrated coefficients map event counts onto
// TL2's energy and cycle figures, the cheapest timed layer with the
// full per-phase analytic power interface.
const AnalyticTargetLayer = 2

// countStats carries the exact (non-predicted) byproducts of a
// counting run: the traffic is functionally identical to the timed
// run's, so transactions, retries and executed bytecodes are true
// values, not estimates.
type countStats struct {
	tx      uint64
	retries uint64
	steps   uint64
	cycles  uint64 // untimed protocol-minimum cycle tally
}

// featKey identifies a traffic shape for the feature cache: the
// workload's program fingerprint plus every configuration axis that
// shapes traffic. The layer is deliberately absent — features do not
// depend on it, which is exactly the sharing the cache exploits. The
// arbitration policy IS present: a contended run carries the crypto
// and DMA masters' traffic on top of the CPU's, so two configurations
// differing only in arb policy must never share a cache entry.
type featKey struct {
	fp    uint64
	org   javacard.Organization
	amap  string
	fault string
	arb   string
}

// shapeKey is the traffic shape of a configuration run on a prepared
// workload.
func shapeKey(cfg Config, p prepared) featKey {
	return featKey{fp: p.fp, org: cfg.Org, amap: cfg.AddrMap, fault: off(cfg.Fault), arb: off(cfg.Arb)}
}

// shapes dedupes jobs by traffic shape. It returns one representative
// job per shape, in first-seen order, and the shape slot of every job:
// the jobs of one shape share one counting run.
func shapes(jobs []job) (reps []job, slot []int) {
	seen := map[featKey]int{}
	slot = make([]int, len(jobs))
	for i, j := range jobs {
		k := shapeKey(j.cfg, j.p)
		s, ok := seen[k]
		if !ok {
			s = len(reps)
			seen[k] = s
			reps = append(reps, j)
		}
		slot[i] = s
	}
	return reps, slot
}

// featCache memoizes counting runs process-wide. Counting is fully
// deterministic (the fault injectors are seeded hashes of the access
// stream), so a hit returns bit-identical features; the cache turns the
// screening phase of a repeated or overlapping sweep into pure model
// arithmetic. Bounded so pathological workload churn cannot grow it
// without limit — on overflow new shapes are computed but not stored.
var (
	featMu    sync.Mutex
	featCache = map[featKey]struct {
		f  tlm3.Features
		st countStats
	}{}
)

const featCacheCap = 8192

// countRun returns one configuration's feature vector and exact
// traffic stats, via the cache when the shape has been counted before.
func countRun(ctx context.Context, cfg Config, p prepared) (tlm3.Features, countStats, error) {
	cfg.Arb = off(cfg.Arb)
	key := shapeKey(cfg, p)
	featMu.Lock()
	v, ok := featCache[key]
	featMu.Unlock()
	if ok {
		return v.f, v.st, nil
	}
	f, st, err := countRunUncached(ctx, cfg, p)
	if err != nil {
		return f, st, err
	}
	featMu.Lock()
	if len(featCache) < featCacheCap {
		featCache[key] = struct {
			f  tlm3.Features
			st countStats
		}{f, st}
	}
	featMu.Unlock()
	return f, st, nil
}

// countRunUncached executes one configuration's workload against the
// layer-3 counting bus: the full interpreter run with the same masters,
// fault injectors and retry policy as a timed evaluation, but with
// every transaction completing in zero simulated time. On a contended
// system the Counter completes each transaction at its grant cycle, so
// the counted event stream is the contended traffic, and the mux's
// grant and contention tallies land in its arbitration counts. It
// returns the feature vector of the traffic in microseconds instead of
// milliseconds. The features do not depend on cfg.Layer; cfg.Arb must
// be folded (off).
func countRunUncached(ctx context.Context, cfg Config, p prepared) (tlm3.Features, countStats, error) {
	if err := ctx.Err(); err != nil {
		return tlm3.Features{}, countStats{}, &CancelledError{Config: cfg, Workload: p.w.Name, Cause: err}
	}
	s, err := newSystem(cfg, p, 3, gatepower.CharTable{}, nil, nil)
	if err != nil {
		return tlm3.Features{}, countStats{}, err
	}
	s.boot()
	if err := s.run(ctx); err != nil {
		return tlm3.Features{}, countStats{}, err
	}
	st := countStats{steps: s.vm.Steps, cycles: s.count.Cycles()}
	st.tx, st.retries = s.traffic()
	return s.count.Features(), st, nil
}

// runAnalytic evaluates a layer-3 configuration: one counting run
// (cached across sweeps) plus one evaluation of the calibrated model.
// Cycles and BusEnergyJ are the model's predictions of the
// AnalyticTargetLayer figures; Transactions, Retries and Steps are
// exact (the counting run executes the real workload against the real
// slaves).
func runAnalytic(ctx context.Context, cfg Config, p prepared, metered bool) (Result, error) {
	model, err := DefaultModel()
	if err != nil {
		return Result{}, fmt.Errorf("explore: layer-3 calibration: %w", err)
	}
	f, st, err := countRun(ctx, cfg, p)
	if err != nil {
		return Result{}, err
	}
	energyJ, cycles, err := model.Predict(AnalyticTargetLayer, calibGroup(cfg.Org, cfg.Arb), f.Vector())
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Config:       cfg,
		Workload:     p.w.Name,
		Cycles:       uint64(math.Round(math.Max(cycles, 0))),
		BusEnergyJ:   energyJ,
		Transactions: st.tx,
		Retries:      st.retries,
		Steps:        st.steps,
	}
	if metered {
		reg := metrics.New("L3")
		reg.SetMaster(p.w.Name)
		reg.Retries(res.Retries)
		reg.RecordKernel(st.cycles, 0, 0, 0)
		reg.Finalize(energyJ)
		snap := reg.Snapshot()
		res.Metrics = &snap
	}
	return res, nil
}
