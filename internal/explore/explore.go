// Package explore is the HW/SW interface exploration harness of the
// paper's case study (§4.3): "During HW/SW interface evaluation we
// change the address map, organization of these registers and used bus
// transactions to access them." It sweeps the refined Java Card model
// over those axes — SFR organization (byte-staged / halfword / packed /
// burst), stack address map (near/far from the code memory), and bus
// abstraction layer (1 or 2) — and reports cycles and estimated energy
// per configuration, which is exactly the evaluation the energy-aware
// transaction-level models exist to make fast.
//
// Every configuration evaluation constructs its own kernel, bus, power
// model and VM, so the cross product is embarrassingly parallel: Sweep
// fans configurations out over a bounded worker pool and returns the
// results in deterministic input order regardless of completion order.
// The only state shared between workers is immutable — the assembled
// workload program, the preloaded code ROM (reads are pure) and the
// characterization table (passed by value).
package explore

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/arb"
	"repro/internal/core"
	"repro/internal/gatepower"
	"repro/internal/javacard"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/platform"
)

// Stack SFR base addresses of the two explored address maps. The code
// ROM sits at 0; the "near" base keeps the address-bus Hamming distance
// between interleaved code fetches and stack accesses small, the "far"
// base (alternating bit pattern) maximizes it.
const (
	NearBase = 0x0000_1000
	FarBase  = 0x0002_AAA0
)

// romSize is the code ROM window; method bodies alias onto it, so every
// workload program must fit.
const romSize = 0x1000

// AddrMaps names the default explored address maps — the two the
// paper's case study evaluates. The full named vocabulary (AllAddrMaps)
// is wider; the default sweep stays on these two so historical outputs
// are unchanged.
var AddrMaps = []string{"near", "far"}

// mapBases names every address map the harness can build: the stack
// SFR base for each. The extra maps beyond near/far span the address
// space with distinct Hamming profiles against the code ROM at 0 —
// the enlarged design space the multi-fidelity sweep screens. All
// bases are 16-byte aligned (the burst organization requires it).
var mapBases = map[string]uint64{
	"near":   NearBase,
	"far":    FarBase,
	"dense":  0x0000_1040, // adjacent to near: minimal address toggling
	"page":   0x0000_4000, // one page bit away from the code ROM
	"mid":    0x0001_0000, // single high bit
	"sparse": 0x0005_5540, // alternating bits, wider than far
	"hi":     0x0010_0000, // high single bit, long carry runs
	"top":    0x0800_0000, // top of the explored space
}

// AllAddrMaps lists every named address map, the default pair first.
var AllAddrMaps = []string{"near", "far", "dense", "page", "mid", "sparse", "hi", "top"}

// BaseForMap resolves a named address map to its stack SFR base.
func BaseForMap(name string) (uint64, bool) {
	b, ok := mapBases[name]
	return b, ok
}

// SweepLayers lists the bus abstraction layers a sweep accepts: the
// timed layers 1 and 2, and the analytic layer 3 (calibrated
// event-count model, no cycle simulation).
var SweepLayers = []int{1, 2, 3}

// LayerVocab renders the valid sweep layers for error messages.
func LayerVocab() string {
	parts := make([]string, len(SweepLayers))
	for i, l := range SweepLayers {
		parts[i] = fmt.Sprint(l)
	}
	return strings.Join(parts, ", ")
}

// ParseLayers parses a comma-separated layer list ("1,2,3"),
// rejecting unknown layers upfront — the command-line mirror of
// Axis.Parse, so a bad layer fails loudly before any pool work.
func ParseLayers(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		l, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("explore: bad layer %q (valid layers: %s)", part, LayerVocab())
		}
		if err := Valid(Config{Layer: l}); err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("explore: empty layer list (valid layers: %s)", LayerVocab())
	}
	return out, nil
}

// SweepRetry is the master retry policy paired with an active fault
// plan: generous enough that seeded-random error runs cannot abort a
// workload, with a one-cycle backoff before each re-issue.
var SweepRetry = core.RetryPolicy{MaxRetries: 16, Backoff: 1}

// ArbPolicies names the arbitration-policy sweep axis values: the two
// arb.Arbiter policies. The empty string (spelled "none" on the command
// line) keeps the single-master system and is the default.
var ArbPolicies = []string{string(arb.FixedPriority), string(arb.RoundRobin)}

// Config is one point of the design space.
type Config struct {
	Layer   int // bus abstraction layer: 1, 2 (timed) or 3 (analytic)
	Org     javacard.Organization
	AddrMap string // named address map (AllAddrMaps)
	Fault   string // named fault plan (fault.Names); "" or "none" = clean
	Arb     string // arbitration policy (ArbPolicies); "" or "none" = single master
	Tear    string // named tear plan (tear.Names); "" or "none" = never torn
	Journal string // journal strategy (journal.Names); "" or "none" = unjournaled
}

// String renders the configuration compactly. Clean single-master
// configurations keep the historical three-part form; the fault plan,
// arbitration policy, tear plan and journal strategy append, in that
// order, only when active (the vocabularies are disjoint, so the
// rendering stays unambiguous).
func (c Config) String() string {
	s := fmt.Sprintf("L%d/%s/%s", c.Layer, c.Org, c.AddrMap)
	for _, ax := range Axes {
		if v := off(*ax.Field(&c)); v != "" {
			s += "/" + v
		}
	}
	return s
}

// off folds the "none" spelling of an axis's off value (clean, single
// master, never torn, unjournaled) into the canonical empty form.
func off(v string) string {
	if v == "none" {
		return ""
	}
	return v
}

// Valid reports whether the harness can evaluate cfg: the layer must
// be a sweep layer, and a tear plan or journal strategy needs a timed
// single-master bus. It is the one statement of these rules: the
// engine applies it to every configuration it runs, and the command
// lines and the serving layer apply it to their requests up front
// (ValidAxes), so an impossible combination is refused before any work
// starts. The axis vocabularies are checked where names resolve.
func Valid(cfg Config) error {
	if cfg.Layer < 1 || cfg.Layer > 3 {
		return fmt.Errorf("explore: unsupported layer %d (valid layers: %s)", cfg.Layer, LayerVocab())
	}
	if off(cfg.Tear) == "" && off(cfg.Journal) == "" {
		return nil
	}
	if cfg.Layer != 1 && cfg.Layer != 2 {
		return fmt.Errorf("explore: tear/journal configurations need timed layers (1, 2); layer %d requested", cfg.Layer)
	}
	if a := off(cfg.Arb); a != "" {
		return fmt.Errorf("explore: tear/journal configurations are single-master only; arbitration %q requested", a)
	}
	return nil
}

// ValidAxes applies Valid to every layer × axis-row combination of a
// sweep. Organizations, maps and workloads do not enter the rule, so
// the check stays cheap however many of them the sweep names.
func ValidAxes(opts SweepOpts, layers []int) error {
	var c Config
	for _, c.Layer = range layers {
		if err := cross(&opts, &c, 0, Valid); err != nil {
			return err
		}
	}
	return nil
}

// screenTrusted reports whether the analytic screen's prediction for
// cfg may prune configurations (and be pruned): the multi-fidelity
// sweep always confirms an untrusted configuration exactly and never
// lets it dominate another. Two kinds lie outside the calibrated
// bands: faulted contention, because the arbitration groups are fitted
// on clean runs only, and torn/journaled runs, whose two-phase traffic
// (session + power-up replay) the model was never fitted on.
func screenTrusted(cfg Config) bool {
	if off(cfg.Arb) != "" && off(cfg.Fault) != "" {
		return false
	}
	return off(cfg.Tear) == "" && off(cfg.Journal) == ""
}

// Configs enumerates the cross product of the configuration axes in
// canonical order: layers outer, then organizations, maps and the Axes
// rows (fault plans, arbitration policies, tear plans and journal
// strategies innermost). An empty opts axis contributes its off value
// alone. The sweep engine and the serving layer's distributed fan-out
// both expand sweeps through it, so a single-node sweep body and its
// reassembled fan-out list configurations in the same order.
func Configs(opts SweepOpts, layers []int, orgs []javacard.Organization, maps []string) []Config {
	var cfgs []Config
	add := func(c Config) error {
		cfgs = append(cfgs, c)
		return nil
	}
	var c Config
	for _, c.Layer = range layers {
		for _, c.Org = range orgs {
			for _, c.AddrMap = range maps {
				cross(&opts, &c, 0, add)
			}
		}
	}
	return cfgs
}

// Result is the measured outcome of one configuration on one workload.
type Result struct {
	Config
	Workload     string
	Cycles       uint64
	BusEnergyJ   float64
	Transactions uint64
	Retries      uint64 // bus-error re-issues by the masters
	Steps        uint64 // executed bytecodes

	// Card-tear outcome (tear/journal configurations only; zero
	// otherwise). RecoveryJ is the power-up replay's total energy, the
	// exact meter delta of the recovery phase.
	Torn      bool
	CutCycle  uint64
	RecoveryJ float64

	// Metrics is the configuration's observability snapshot — per-phase
	// and per-slave energy, occupancy, latency, fault counters. Only
	// populated when the run was metered (SweepOpts.Metrics).
	Metrics *metrics.Snapshot
}

// EnergyPerStep returns bus energy per bytecode, the case study's merit
// figure.
func (r Result) EnergyPerStep() float64 {
	if r.Steps == 0 {
		return 0
	}
	return r.BusEnergyJ / float64(r.Steps)
}

// CancelledError reports a configuration whose evaluation was aborted
// because the sweep's context was cancelled — a server deadline expired
// or the client went away. It wraps the context's cause, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) answer through the errors.Join result of
// SweepContext.
type CancelledError struct {
	Config   Config
	Workload string
	Cause    error // context.Canceled or context.DeadlineExceeded
}

// Error implements error.
func (e *CancelledError) Error() string {
	return fmt.Sprintf("explore %v/%s: cancelled: %v", e.Config, e.Workload, e.Cause)
}

// Unwrap exposes the context cause for errors.Is matching.
func (e *CancelledError) Unwrap() error { return e.Cause }

// ErrFetchTimeout reports a code fetch whose bus transaction never
// reached a terminal state within core.StepLimit kernel steps — a
// protocol deadlock in the modelled bus, not a slow slave.
type ErrFetchTimeout struct {
	Addr  uint64 // bus address of the abandoned fetch
	Cycle uint64 // kernel cycle at which the master gave up
}

// Error implements error.
func (e *ErrFetchTimeout) Error() string {
	return fmt.Sprintf("explore: fetch at %#x never completed (gave up at cycle %d after %d bus steps)",
		e.Addr, e.Cycle, core.StepLimit)
}

// prepared is the per-workload state hoisted out of the sweep loop: the
// assembled program and the loaded code ROM. Both are immutable once
// built (ROM reads are pure and the bus rejects writes before they
// reach the slave), so one copy is shared read-only by all workers.
type prepared struct {
	w    javacard.Workload
	prog javacard.Program
	rom  *mem.ROM
	fp   uint64 // fingerprint of (name, program image), the feature-cache identity
}

func prepare(w javacard.Workload) (prepared, error) {
	prog := w.Program()
	rom := mem.NewROM("code", 0, romSize, 0, 0)
	if err := rom.Load(0, prog.Main); err != nil {
		return prepared{}, err
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(w.Name))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write(prog.Main)
	return prepared{w: w, prog: prog, rom: rom, fp: h.Sum64()}, nil
}

// Run evaluates one configuration on one workload.
func Run(cfg Config, w javacard.Workload, char gatepower.CharTable) (Result, error) {
	p, err := prepare(w)
	if err != nil {
		return Result{}, err
	}
	r, err := runPrepared(context.Background(), cfg, p, char, false)
	if err != nil {
		return Result{}, fmt.Errorf("explore %v/%s: %w", cfg, w.Name, err)
	}
	return r, nil
}

// runPrepared evaluates one configuration against prepared workload
// state. It builds a fully private simulation context — kernel, bus,
// power model, adapter, VM — and therefore may run concurrently with
// other calls sharing the same prepared value. With metered set, the
// run additionally carries a private metrics registry whose final
// snapshot lands in Result.Metrics. The result keeps the caller's
// spelling of every axis.
func runPrepared(ctx context.Context, cfg Config, p prepared, char gatepower.CharTable, metered bool) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, &CancelledError{Config: cfg, Workload: p.w.Name, Cause: err}
	}
	if err := Valid(cfg); err != nil {
		return Result{}, err
	}
	c := cfg
	for _, ax := range Axes {
		if ax.fold {
			*ax.Field(&c) = off(*ax.Field(&c))
		}
	}
	var res Result
	var err error
	switch {
	case c.Tear != "" || c.Journal != "":
		// A tear plan or journal strategy promotes the run to the
		// two-phase (session + power-up) persistent system. See tear.go.
		res, err = runTorn(ctx, c, p, char, metered)
	case c.Layer == 3:
		// The analytic layer does not simulate cycles: it counts the
		// configuration's traffic once and evaluates the calibrated
		// model. See screen.go.
		res, err = runAnalytic(ctx, c, p, metered)
	default:
		res, err = runTimed(ctx, c, p, char, metered)
	}
	if err != nil {
		return Result{}, err
	}
	res.Config = cfg
	return res, nil
}

// runTimed evaluates a configuration on its timed bus: the CPU alone,
// or — under an arbitration policy — contending with the crypto and
// DMA masters, in which case the reported energy adds the arbitration
// wires' own switching energy and the traffic sums over all three
// masters.
func runTimed(ctx context.Context, cfg Config, p prepared, char gatepower.CharTable, metered bool) (Result, error) {
	var reg *metrics.Registry
	if metered {
		name := fmt.Sprintf("L%d", cfg.Layer)
		if cfg.Arb != "" {
			name += "+" + cfg.Arb
		}
		reg = metrics.New(name)
		reg.SetMaster(p.w.Name)
	}
	s, err := newSystem(cfg, p, cfg.Layer, char, reg, reg)
	if err != nil {
		return Result{}, err
	}
	s.boot()
	if err := s.run(ctx); err != nil {
		return Result{}, err
	}
	res := Result{Workload: p.w.Name, Cycles: s.k.Cycle(), BusEnergyJ: s.energy(), Steps: s.vm.Steps}
	if s.mux != nil {
		res.BusEnergyJ += s.mux.TotalEnergy()
	}
	res.Transactions, res.Retries = s.traffic()
	if reg != nil {
		// The interpreter steps the kernel itself, so the run accounting
		// and every master's retries are recorded here rather than
		// through kernel/master hooks.
		reg.Retries(res.Retries)
		if s.mux != nil {
			s.mux.ReportMetrics(reg)
		}
		reg.RecordKernel(s.k.Cycle(), s.k.SkippedCycles(), s.k.IdleSkips(), s.k.ProcsRun())
		reg.Finalize(res.BusEnergyJ)
		snap := reg.Snapshot()
		res.Metrics = &snap
	}
	return res, nil
}

// SweepOpts tunes the parallel sweep engine.
type SweepOpts struct {
	// Workers is the number of concurrent configuration evaluations;
	// <= 0 selects runtime.GOMAXPROCS(0). The result order does not
	// depend on the worker count.
	Workers int
	// OnResult, when set, streams each configuration's outcome as it
	// lands, in completion order (nondeterministic under Workers > 1).
	// Calls are serialized, so the callback needs no locking of its
	// own. Failed configurations are reported with the zero Result and
	// a non-nil error.
	OnResult func(Result, error)
	// Faults is the fault-plan sweep axis: named plans (fault.Names)
	// evaluated for every configuration. Empty means clean runs only.
	Faults []string
	// Arbs is the arbitration-policy sweep axis: "" (or "none") keeps
	// the single-master system, "fixed"/"rr" promote the bus to the
	// three-master contended system (CPU + crypto + DMA) under that
	// policy. Empty means single-master only.
	Arbs []string
	// Tears is the card-tear sweep axis: "" (or "none") keeps the
	// uninterrupted run, a named plan (tear.Names) cuts the supply
	// deterministically mid-run. Empty means untorn only.
	Tears []string
	// Journals is the journaling-strategy sweep axis (journal.Names):
	// "" (or "none") persists statics unjournaled, a named strategy
	// routes them through the transaction journal. Empty means
	// unjournaled only.
	Journals []string
	// Metrics attaches a private observability registry to every
	// configuration run and stores its snapshot in Result.Metrics.
	Metrics bool
}

// Sweep evaluates the full cross product of layers × organizations ×
// address maps × workloads with default options (one worker per
// available CPU). See SweepWith.
func Sweep(layers []int, orgs []javacard.Organization, maps []string, workloads []javacard.Workload) ([]Result, error) {
	return SweepWith(SweepOpts{}, layers, orgs, maps, workloads)
}

// SweepWith evaluates the cross product over a bounded worker pool.
// Results are returned in input (cross-product) order regardless of
// completion order, so the output is byte-identical for any worker
// count. A failing configuration does not abort the sweep: its error is
// recorded and the remaining points still run, so the call returns the
// partial results together with the joined per-configuration errors.
func SweepWith(opts SweepOpts, layers []int, orgs []javacard.Organization, maps []string, workloads []javacard.Workload) ([]Result, error) {
	return SweepContext(context.Background(), opts, layers, orgs, maps, workloads)
}

// SweepContext is SweepWith under a context: when ctx is cancelled (a
// server deadline fired, a client disconnected) the in-flight
// configuration evaluations abort within a bounded number of bytecodes
// and every unfinished configuration surfaces as a *CancelledError in
// the joined error, alongside whatever completed before the cut. The
// result-order and partial-failure contracts of SweepWith are
// unchanged.
func SweepContext(ctx context.Context, opts SweepOpts, layers []int, orgs []javacard.Organization, maps []string, workloads []javacard.Workload) ([]Result, error) {
	jobs, prepErrs := enumerateJobs(opts, layers, orgs, maps, workloads)
	results, errs := runJobs(ctx, opts, jobs)

	out := make([]Result, 0, len(jobs))
	joined := prepErrs
	for i := range jobs {
		if errs[i] != nil {
			joined = append(joined, errs[i])
			continue
		}
		out = append(out, results[i])
	}
	return out, errors.Join(joined...)
}

// job is one pool unit: a configuration paired with its prepared
// workload state. A job's slot in its slice is its position in
// cross-product order.
type job struct {
	cfg Config
	p   prepared
}

// enumerateJobs builds the cross product in canonical order
// (workloads outer, then Configs' order) with per-workload preparation
// hoisted. Workloads that fail to prepare contribute an error instead
// of jobs.
func enumerateJobs(opts SweepOpts, layers []int, orgs []javacard.Organization, maps []string, workloads []javacard.Workload) ([]job, []error) {
	cfgs := Configs(opts, layers, orgs, maps)
	var jobs []job
	var prepErrs []error
	for _, w := range workloads {
		p, err := prepare(w)
		if err != nil {
			prepErrs = append(prepErrs, fmt.Errorf("explore %s: %w", w.Name, err))
			continue
		}
		for _, cfg := range cfgs {
			jobs = append(jobs, job{cfg: cfg, p: p})
		}
	}
	return jobs, prepErrs
}

// runJobs fans jobs over the bounded worker pool and returns results
// and errors indexed by job position — the engine shared by the
// exhaustive sweep and the multi-fidelity confirmation pass. Exactly
// one of results[i] / errs[i] is meaningful per slot.
func runJobs(ctx context.Context, opts SweepOpts, jobs []job) ([]Result, []error) {
	// Characterize once before the fan-out so workers share the cached
	// table instead of racing to build it (DefaultCharTable is
	// once-guarded either way; this keeps the cost out of the pool).
	char := platform.DefaultCharTable()

	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	var cbMu sync.Mutex
	eachJob(opts.Workers, len(jobs), func(i int) {
		r, err := runJob(ctx, jobs[i], char, opts.Metrics)
		results[i], errs[i] = r, err
		if opts.OnResult != nil {
			cbMu.Lock()
			opts.OnResult(r, err)
			cbMu.Unlock()
		}
	})
	return results, errs
}

// runJob evaluates one job. An error names the job's configuration and
// workload; a *CancelledError already does and is returned as is.
func runJob(ctx context.Context, j job, char gatepower.CharTable, metered bool) (Result, error) {
	r, err := runPrepared(ctx, j.cfg, j.p, char, metered)
	if err != nil {
		var ce *CancelledError
		if !errors.As(err, &ce) {
			err = fmt.Errorf("explore %v/%s: %w", j.cfg, j.p.w.Name, err)
		}
	}
	return r, err
}

// eachJob calls f(i) for every i in [0, n) on a bounded pool: workers
// goroutines (one per CPU when workers <= 0, never more than n), each
// taking the next index in order. f writes only slot i of its outputs,
// so what it computes does not depend on the worker count.
func eachJob(workers, n int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Pareto returns the results not dominated in (Cycles, BusEnergyJ)
// within each workload — the frontier the designer picks from. It runs
// in O(n log n): per workload, sort by (cycles, energy) and scan with
// the running energy minimum; a point is on the frontier iff it lowers
// the minimum (or exactly duplicates the point that set it, since equal
// points do not dominate each other). Output preserves input order.
func Pareto(results []Result) []Result {
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := &results[order[a]], &results[order[b]]
		if ra.Workload != rb.Workload {
			return ra.Workload < rb.Workload
		}
		if ra.Cycles != rb.Cycles {
			return ra.Cycles < rb.Cycles
		}
		return ra.BusEnergyJ < rb.BusEnergyJ
	})
	keep := make([]bool, len(results))
	curWL := ""
	bestE := math.Inf(1)
	var bestC uint64
	started := false
	for _, idx := range order {
		r := &results[idx]
		if !started || r.Workload != curWL {
			started, curWL = true, r.Workload
			bestE, bestC = math.Inf(1), 0
		}
		switch {
		case r.BusEnergyJ < bestE:
			bestE, bestC = r.BusEnergyJ, r.Cycles
			keep[idx] = true
		case r.BusEnergyJ == bestE && r.Cycles == bestC:
			keep[idx] = true
		}
	}
	var front []Result
	for i, r := range results {
		if keep[i] {
			front = append(front, r)
		}
	}
	return front
}

// rowFmt lays out one table row; the header in Table must match.
const rowFmt = "%-12s %-22s %10d %12.1f %8d %14.2f\n"

// Row renders one result in the exploration table's row format, for
// streaming sweep progress (SweepOpts.OnResult) in the same shape as
// the final table.
func Row(r Result) string {
	return fmt.Sprintf(rowFmt,
		r.Workload, r.Config.String(), r.Cycles, r.BusEnergyJ*1e12,
		r.Transactions, r.EnergyPerStep()*1e12)
}

// Table renders results as the case-study exploration table.
func Table(results []Result) string {
	rows := append([]Result(nil), results...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return rows[i].BusEnergyJ < rows[j].BusEnergyJ
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-22s %10s %12s %8s %14s\n",
		"workload", "config", "cycles", "energy[pJ]", "tx", "energy/bc[pJ]")
	for _, r := range rows {
		sb.WriteString(Row(r))
	}
	return sb.String()
}
