package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	"hbsp/fault"
	isched "hbsp/internal/sched"
	"hbsp/sched"
	"hbsp/sim"
	"hbsp/trace"
)

// Span names of the layer calls the offline workloads make. The metric
// derivations and the per-op unit test refer to them.
const (
	spanOp          = "op"
	spanMachine     = "cluster.Profile.Machine"
	spanStreamTE    = "collective.StreamTotalExchange"
	spanExchange    = "bsp.ExchangeSchedule"
	spanTE          = "sched.RunSchedule/total_exchange"
	spanSync        = "sched.RunSchedule/sync"
	spanSyncFault   = "sched.RunSchedule/sync_fault"
	spanSyncTraced  = "sched.RunSchedule/sync_traced"
	spanTESym       = "sched.RunSchedule/total_exchange_sym"
	spanSyncSym     = "sched.RunSchedule/sync_sym"
	spanPartition   = "sched.CollapseClasses"
	spanNewSweep    = "sched.NewSweepEvaluator"
	spanSweepPoint  = "sched.SweepEvaluator.Run"
	spanSweepFirst  = "sched.SweepEvaluator.Run/first"
	spanSpillTo     = "trace.Recorder.SpillTo"
	spanOpenSpill   = "trace.OpenSpillFile"
	spanRollup      = "trace.RollupOf"
	spanPattern     = "collective pattern + Verify"
	minOfflineOps   = 3 // the digest prefix: every run completes these ops
	sweepScaleCount = 4
)

// sweepScales are the uniform LogGP scalings of the hetero-sweep grid.
var sweepScales = [sweepScaleCount]float64{1, 1.25, 1.5, 2}

// stragglerPlan is the fault scenario of the faulty count exchange: one
// persistent straggler plus a windowed wildcard link degradation (the plan
// cmd/simbench's sync_dissemination_fault entries use).
func stragglerPlan() *fault.Plan {
	return &fault.Plan{
		Slowdowns: []fault.Slowdown{{Rank: 0, Factor: 1.5}},
		Links:     []fault.LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2, Start: 0, End: 1e-3}},
	}
}

// sweepOptions mirrors RunSchedule's conventions so every sweep point is
// bit-identical to an independent RunSchedule call with sim.DefaultOptions.
func sweepOptions() sched.SweepOptions {
	o := sim.DefaultOptions()
	return sched.SweepOptions{
		AckSends:         o.AckSends,
		SymmetryCollapse: o.SymmetryCollapse,
		ComputeEmpty:     true,
		Deadline:         o.Deadline,
	}
}

// livePayload is the total-exchange block size of hetero-live op i:
// 8..1024 bytes in steps of 8.
func livePayload(seed int64, i int) int { return 8 * (1 + int(mix(seed, uint64(i))%128)) }

// xeonProfile is the heterogeneous, noise-free Xeon profile that
// cluster.XeonClusterMachine instantiates.
func xeonProfile(p int) *cluster.Profile {
	prof := cluster.XeonCluster((p + 7) / 8)
	prof.NoiseRel = 0
	return prof
}

// buildMachine instantiates a profile inside a platform span; traced runs
// also measure the machine's live-heap footprint.
func buildMachine(r *runner, prof *cluster.Profile, p int) (*cluster.Machine, error) {
	before := 0.0
	if r.cfg.trace {
		before = heapLiveMiB()
	}
	id := r.tr.begin("platform", spanMachine)
	m, err := prof.Machine(p)
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("machine for %d ranks: %w", p, err)
	}
	if r.cfg.trace {
		r.notes["platform.machine_mb"] = fmt.Sprintf("live heap of one P=%d %s machine", p, prof.Name)
		r.layer["platform.machine_mb"] = heapLiveMiB() - before
	}
	return m, nil
}

// runSched evaluates one execution of a schedule inside a sched span.
func runSched(r *runner, name string, m sim.Machine, s sched.Schedule, o sim.Options) (*sim.Result, error) {
	id := r.tr.begin("sched", name)
	res, err := sched.RunSchedule(context.Background(), m, s, 1, o)
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

func streamTE(r *runner, p, bytes int) (sched.Schedule, error) {
	id := r.tr.begin("barrier", spanStreamTE)
	s, err := collective.StreamTotalExchange(p, bytes)
	r.tr.end(id)
	return s, err
}

func exchangeSchedule(r *runner, p int) (sched.Schedule, error) {
	id := r.tr.begin("barrier", spanExchange)
	s, err := bsp.ExchangeSchedule(p)
	r.tr.end(id)
	return s, err
}

// checkTE checks what a total exchange of the given block size must
// produce whatever the machine: P(P−1) messages of that size, and the
// expected collapse decision.
func checkTE(res *sim.Result, p, bytes int, want sim.Collapse) error {
	msgs := int64(p) * int64(p-1)
	if res.Messages != msgs || res.Bytes != msgs*int64(bytes) {
		return fmt.Errorf("total exchange P=%d bytes=%d: %d messages / %d bytes, want %d / %d",
			p, bytes, res.Messages, res.Bytes, msgs, msgs*int64(bytes))
	}
	return checkCollapse(res, want)
}

func checkCollapse(res *sim.Result, want sim.Collapse) error {
	if res.Collapse != want {
		return fmt.Errorf("collapse %+v, want %+v", res.Collapse, want)
	}
	return nil
}

var (
	hetero    = sim.Collapse{Reason: sim.CollapseReasonHetero}
	tracedRun = sim.Collapse{Reason: sim.CollapseReasonTrace}
	oneClass  = sim.Collapse{Applied: true, Classes: 1}
	errNoGrid = fmt.Errorf("grid exhausted")
)

// heteroLive: fresh RunSchedule calls on the heterogeneous P=2048 machine.
// One op is a streaming total exchange at a seeded block size, the clean
// dissemination count exchange, the same exchange under the straggler plan,
// and one traced exchange spilled to a file and analysed from disk.
type heteroLive struct {
	p    int
	seed int64
	m    *cluster.Machine
	dir  string
	rec  *trace.Recorder

	// set-up references every op must reproduce bit for bit
	sync, syncFault *sim.Result

	// the current op's outputs, checked after its timing
	payload          int
	te, sy, syf, syt *sim.Result
	rollup           *trace.Rollup
	spillPath        string
	spillBytes       int64
}

func (w *heteroLive) setup(r *runner, rep int) error {
	m, err := buildMachine(r, xeonProfile(w.p), w.p)
	if err != nil {
		return err
	}
	w.m = m
	w.rec = trace.NewRecorder()
	w.dir = filepath.Join(r.cfg.scratch, fmt.Sprintf("hetero-live-%d", os.Getpid()))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	ex, err := exchangeSchedule(r, w.p)
	if err != nil {
		return err
	}
	if w.sync, err = runSched(r, spanSync, w.m, ex, sim.DefaultOptions()); err != nil {
		return err
	}
	o := sim.DefaultOptions()
	o.Faults = stragglerPlan()
	if w.syncFault, err = runSched(r, spanSyncFault, w.m, ex, o); err != nil {
		return err
	}
	if err := checkCollapse(w.sync, hetero); err != nil {
		return err
	}
	if err := checkCollapse(w.syncFault, hetero); err != nil {
		return err
	}
	if !(w.syncFault.MakeSpan > w.sync.MakeSpan) {
		return fmt.Errorf("straggler plan makespan %v does not exceed the clean %v", w.syncFault.MakeSpan, w.sync.MakeSpan)
	}
	if rep == 0 {
		r.dig.result(w.sync)
		r.dig.result(w.syncFault)
	}
	return nil
}

func (w *heteroLive) op(r *runner, i int) (int64, error) {
	w.payload = livePayload(w.seed, i)
	s, err := streamTE(r, w.p, w.payload)
	if err != nil {
		return 0, err
	}
	if w.te, err = runSched(r, spanTE, w.m, s, sim.DefaultOptions()); err != nil {
		return 0, err
	}
	ex, err := exchangeSchedule(r, w.p)
	if err != nil {
		return 0, err
	}
	if w.sy, err = runSched(r, spanSync, w.m, ex, sim.DefaultOptions()); err != nil {
		return 0, err
	}
	o := sim.DefaultOptions()
	o.Faults = stragglerPlan()
	if w.syf, err = runSched(r, spanSyncFault, w.m, ex, o); err != nil {
		return 0, err
	}
	if err := w.traced(r, ex, i); err != nil {
		return 0, err
	}
	return w.te.Messages + w.sy.Messages + w.syf.Messages + w.syt.Messages, nil
}

// traced runs the count exchange with a recorder spilling to a file, then
// reopens the file and rolls it up.
func (w *heteroLive) traced(r *runner, ex sched.Schedule, i int) error {
	w.spillPath = filepath.Join(w.dir, fmt.Sprintf("op%d.spill", i))
	id := r.tr.begin("trace", spanSpillTo)
	f, err := os.Create(w.spillPath)
	if err == nil {
		w.rec.SpillTo(f, trace.SpillOptions{})
	}
	r.tr.end(id)
	if err != nil {
		return err
	}
	o := sim.DefaultOptions()
	o.Recorder = w.rec
	w.syt, err = runSched(r, spanSyncTraced, w.m, ex, o)
	if err == nil {
		err = w.rec.SpillErr()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("traced exchange: %w", err)
	}
	id = r.tr.begin("trace", spanOpenSpill)
	sp, err := trace.OpenSpillFile(w.spillPath)
	r.tr.end(id)
	if err != nil {
		return err
	}
	defer sp.Close()
	id = r.tr.begin("trace", spanRollup)
	w.rollup, err = trace.RollupOf(sp, trace.RollupOptions{})
	r.tr.end(id)
	return err
}

func (w *heteroLive) check(r *runner, i int) error {
	st, err := os.Stat(w.spillPath)
	if err != nil {
		return err
	}
	w.spillBytes = st.Size()
	if err := os.Remove(w.spillPath); err != nil {
		return err
	}
	r.fold(i, w.te, w.sy, w.syf, w.syt)
	if err := checkTE(w.te, w.p, w.payload, hetero); err != nil {
		return err
	}
	if !sameResult(w.sy, w.sync) {
		return fmt.Errorf("clean count exchange differs from the set-up reference")
	}
	if !sameResult(w.syf, w.syncFault) {
		return fmt.Errorf("faulty count exchange differs from the set-up reference")
	}
	// Recording changes neither the times nor the counters; it reports
	// "trace" as the reason for per-rank evaluation.
	if !sameTimes(w.syt, w.sync) {
		return fmt.Errorf("traced count exchange differs from the untraced one")
	}
	if err := checkCollapse(w.syt, tracedRun); err != nil {
		return err
	}
	if w.rollup.MakeSpan != w.syt.MakeSpan || w.rollup.Messages != w.syt.Messages {
		return fmt.Errorf("rollup off the spill: makespan %v / %d messages, run %v / %d",
			w.rollup.MakeSpan, w.rollup.Messages, w.syt.MakeSpan, w.syt.Messages)
	}
	return nil
}

func (w *heteroLive) run(r *runner, deadline time.Time) error {
	var spilled float64
	var bytesPerEvent []float64
	r.offlineLoop(deadline, minOfflineOps,
		func(i int) (int64, error) { return w.op(r, i) },
		func(i int) error {
			err := w.check(r, i)
			if err == nil && r.ops[i].traced {
				spilled += float64(w.spillBytes)
				bytesPerEvent = append(bytesPerEvent, ratio(float64(w.spillBytes), float64(w.rollup.Events)))
			}
			return err
		})
	if r.cfg.trace {
		recording := sum(durations(r.tr.spans, spanSyncTraced)) / 1e3
		r.set("trace.spill_mb_per_s", ratio(spilled/(1<<20), recording), "spill file size over the traced run's host time")
		r.set("trace.spill_bytes_per_event", median(bytesPerEvent), "")
	}
	return nil
}

func (w *heteroLive) finish(r *runner) error {
	if !r.cfg.trace {
		return nil
	}
	sp := r.tr.spans
	r.set("platform.machine_build_ms", median(setupDurations(sp, spanMachine)), "")
	r.set("barrier.stream_gen_ms", median(append(durations(sp, spanStreamTE), durations(sp, spanExchange)...)), "")
	te, sy, syf, syt := durations(sp, spanTE), durations(sp, spanSync), durations(sp, spanSyncFault), durations(sp, spanSyncTraced)
	r.set("sched.exec_ms.total_exchange", median(te), "")
	r.set("sched.exec_ms.sync", median(sy), "")
	r.set("sched.exec_ms.sync_fault", median(syf), "")
	execNs := (sum(te) + sum(sy) + sum(syf)) * 1e6
	traced := float64(len(te))
	edges := traced * float64(int64(w.p)*int64(w.p-1)+w.sync.Messages+w.syncFault.Messages)
	r.set("sched.ns_per_edge", ratio(execNs, edges), "untraced RunSchedule time over messages evaluated")
	r.set("sched.collapsed_ns_per_rank", ratio(execNs, traced*3*float64(w.p)), "RunSchedule time over ranks evaluated")
	r.set("fault.overhead_ratio", ratio(median(syf), median(sy)), "base: sched.exec_ms.sync, same run")
	r.set("trace.record_ratio", ratio(median(syt), median(sy)), "base: sched.exec_ms.sync, same run")
	r.set("trace.analyze_ms", median(addPairs(durations(sp, spanOpenSpill), durations(sp, spanRollup))), "OpenSpillFile + RollupOf")
	return nil
}

func (w *heteroLive) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.m, w.rec, w.te, w.sy, w.syf, w.syt, w.rollup = nil, nil, nil, nil, nil, nil, nil
}

// heteroSweep: one persistent SweepEvaluator walks a row-major grid of
// payload bytes × sweepScales on the heterogeneous P=2048 machine, the
// order an hbspd NDJSON sweep expands its axes in. Set-up evaluates grid
// point 0; op i evaluates point i+1, so every point is visited once.
type heteroSweep struct {
	p        int
	seed     int64
	machines [sweepScaleCount]*cluster.Machine
	sw       *sched.SweepEvaluator
	bytes    []int
	stats0   sched.SweepStats

	res     *sim.Result
	samples []sweepSample
}

// sweepSample is a grid point kept for the bit-identity check against a
// fresh RunSchedule.
type sweepSample struct {
	point int
	ms    float64
	res   *sim.Result
}

// sweepGridBytes returns the bytes axis: distinct block sizes, seed-ordered.
func sweepGridBytes(seed int64, n int) []int {
	out := make([]int, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, uint64(i)) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, k := range perm {
		out[i] = 8 * (k + 1)
	}
	return out
}

// point returns grid point k: bytes outermost, scaling innermost.
func (w *heteroSweep) point(k int) (bytes int, m *cluster.Machine) {
	return w.bytes[k/sweepScaleCount], w.machines[k%sweepScaleCount]
}

func (w *heteroSweep) gridLen() int { return len(w.bytes) * sweepScaleCount }

func (w *heteroSweep) setup(r *runner, rep int) error {
	prof := xeonProfile(w.p)
	for i, f := range sweepScales {
		m, err := buildMachine(r, prof.Scaled(f, f, f, f), w.p)
		if err != nil {
			return err
		}
		w.machines[i] = m
	}
	w.bytes = sweepGridBytes(w.seed, 1024)
	id := r.tr.begin("sched", spanNewSweep)
	sw, err := sched.NewSweepEvaluator(w.machines[0], sweepOptions())
	r.tr.end(id)
	if err != nil {
		return err
	}
	w.sw = sw
	res, err := w.evalPoint(r, 0, spanSweepFirst)
	if err != nil {
		return err
	}
	if rep == 0 {
		r.dig.result(res)
	}
	w.stats0 = w.sw.Stats()
	return nil
}

func (w *heteroSweep) evalPoint(r *runner, k int, span string) (*sim.Result, error) {
	bytes, m := w.point(k)
	s, err := streamTE(r, w.p, bytes)
	if err != nil {
		return nil, err
	}
	id := r.tr.begin("sched", span)
	res, err := w.sw.Run(context.Background(), m, s, 1)
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("sweep point %d: %w", k, err)
	}
	if err := checkTE(res, w.p, bytes, hetero); err != nil {
		return nil, fmt.Errorf("sweep point %d: %w", k, err)
	}
	return res, nil
}

// sampleEvery spaces the sampled grid points; at most maxSamples are kept.
const (
	sampleEvery = 5
	maxSamples  = 2
)

func (w *heteroSweep) run(r *runner, deadline time.Time) error {
	r.offlineLoop(deadline, minOfflineOps,
		func(i int) (int64, error) {
			if i+1 >= w.gridLen() {
				return 0, errNoGrid
			}
			res, err := w.evalPoint(r, i+1, spanSweepPoint)
			if err != nil {
				return 0, err
			}
			w.res = res
			return res.Messages, nil
		},
		func(i int) error {
			r.fold(i, w.res)
			if i%sampleEvery == 0 && len(w.samples) < maxSamples {
				w.samples = append(w.samples, sweepSample{point: i + 1, ms: r.ops[i].ms, res: cloneResult(w.res)})
			}
			return nil
		})
	return nil
}

// finish re-evaluates the sampled points with fresh RunSchedule calls: they
// must be bit-identical, and their timing is the live base of the sweep
// ratio.
func (w *heteroSweep) finish(r *runner) error {
	live, swept := checkSamples(r, w.p, w.samples, w.point)
	if !r.cfg.trace {
		return nil
	}
	sp := r.tr.spans
	st := w.sw.Stats()
	r.set("platform.machine_build_ms", median(setupDurations(sp, spanMachine)), "")
	r.set("barrier.stream_gen_ms", median(durations(sp, spanStreamTE)), "")
	points := durations(sp, spanSweepPoint)
	r.set("sched.sweep_point_ms", median(points), "")
	r.set("sched.sweep_first_point_ms", median(setupDurations(sp, spanSweepFirst)), "")
	r.set("sched.sweep_tapes_built", float64(st.TapesBuilt-w.stats0.TapesBuilt), "over the timed phase")
	r.set("sched.sweep_tapes_reused", float64(st.TapesReused-w.stats0.TapesReused), "over the timed phase")
	r.set("sched.sweep_memo_mb", float64(st.MemoBytes)/(1<<20), "")
	r.set("sched.sweep_to_live_ratio", ratio(median(swept), median(live)),
		fmt.Sprintf("base: fresh RunSchedule of the same %d sampled grid points", len(live)))
	edges := float64(len(points)) * float64(int64(w.p)*int64(w.p-1))
	r.set("sched.ns_per_edge", ratio(sum(points)*1e6, edges), "sweep point time over messages evaluated")
	r.set("sched.collapsed_ns_per_rank", ratio(sum(points)*1e6, float64(len(points)*w.p)), "sweep point time over ranks evaluated")
	return nil
}

// checkSamples re-evaluates each sampled point with a fresh RunSchedule and
// fails the run on any difference. It returns the fresh and the swept
// timings of the samples in milliseconds.
func checkSamples(r *runner, p int, samples []sweepSample, point func(int) (int, *cluster.Machine)) (live, swept []float64) {
	for _, s := range samples {
		bytes, m := point(s.point)
		st, err := collective.StreamTotalExchange(p, bytes)
		if err != nil {
			r.fail(fmt.Sprintf("sample %d", s.point), err)
			continue
		}
		t0 := time.Now()
		res, err := sched.RunSchedule(context.Background(), m, st, 1, sim.DefaultOptions())
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		r.attempted++
		if err != nil {
			r.fail(fmt.Sprintf("sample %d", s.point), err)
			continue
		}
		if !sameResult(res, s.res) {
			r.fail(fmt.Sprintf("sample %d", s.point), fmt.Errorf("sweep point differs from a fresh RunSchedule"))
			continue
		}
		live = append(live, ms)
		swept = append(swept, s.ms)
	}
	return live, swept
}

func (w *heteroSweep) close() {
	if w.sw != nil {
		w.sw.Release()
	}
	w.sw, w.machines, w.res, w.samples = nil, [sweepScaleCount]*cluster.Machine{}, nil, nil
}

// flatCollapsed: symmetry-collapsed evaluation on the flat P=262144
// machine. One op is a collapsed streaming total exchange, a collapsed
// count exchange, and one distinct bytes point on a persistent
// SweepEvaluator — at the total exchange's block size, so every op checks
// the sweep point against the fresh RunSchedule it just made.
type flatCollapsed struct {
	p    int
	seed int64
	m    *cluster.Machine
	sw   *sched.SweepEvaluator
	base int // first block size; op i uses base + 8i, distinct per op

	sync *sim.Result

	payload    int
	te, sy, pt *sim.Result
	stats0     sched.SweepStats
}

func (w *flatCollapsed) setup(r *runner, rep int) error {
	m, err := buildMachine(r, cluster.FlatCluster(w.p), w.p)
	if err != nil {
		return err
	}
	w.m = m
	w.base = 8 * (1 + int(mix(w.seed, 0)%64))
	ex, err := exchangeSchedule(r, w.p)
	if err != nil {
		return err
	}
	te, err := streamTE(r, w.p, w.base)
	if err != nil {
		return err
	}
	for _, s := range []sched.Schedule{te, ex} {
		id := r.tr.begin("sched", spanPartition)
		part := isched.CollapseClasses(w.m, s)
		r.tr.end(id)
		if part == nil || part.NumClasses() != 1 {
			return fmt.Errorf("CollapseClasses on the flat machine: want one class, got %v", part)
		}
	}
	if w.sync, err = runSched(r, spanSyncSym, w.m, ex, sim.DefaultOptions()); err != nil {
		return err
	}
	if err := checkCollapse(w.sync, oneClass); err != nil {
		return err
	}
	id := r.tr.begin("sched", spanNewSweep)
	w.sw, err = sched.NewSweepEvaluator(w.m, sweepOptions())
	r.tr.end(id)
	if err != nil {
		return err
	}
	// The first point (a block size no op uses) compiles the evaluator.
	first, err := streamTE(r, w.p, 4)
	if err != nil {
		return err
	}
	id = r.tr.begin("sched", spanSweepFirst)
	res, err := w.sw.Run(context.Background(), w.m, first, 1)
	r.tr.end(id)
	if err != nil {
		return err
	}
	if err := checkTE(res, w.p, 4, oneClass); err != nil {
		return err
	}
	if rep == 0 {
		r.dig.result(w.sync)
		r.dig.result(res)
	}
	w.stats0 = w.sw.Stats()
	return nil
}

func (w *flatCollapsed) op(r *runner, i int) (int64, error) {
	w.payload = w.base + 8*i
	s, err := streamTE(r, w.p, w.payload)
	if err != nil {
		return 0, err
	}
	if w.te, err = runSched(r, spanTESym, w.m, s, sim.DefaultOptions()); err != nil {
		return 0, err
	}
	ex, err := exchangeSchedule(r, w.p)
	if err != nil {
		return 0, err
	}
	if w.sy, err = runSched(r, spanSyncSym, w.m, ex, sim.DefaultOptions()); err != nil {
		return 0, err
	}
	s, err = streamTE(r, w.p, w.payload)
	if err != nil {
		return 0, err
	}
	id := r.tr.begin("sched", spanSweepPoint)
	w.pt, err = w.sw.Run(context.Background(), w.m, s, 1)
	r.tr.end(id)
	if err != nil {
		return 0, err
	}
	return w.te.Messages + w.sy.Messages + w.pt.Messages, nil
}

func (w *flatCollapsed) check(r *runner, i int) error {
	r.fold(i, w.te, w.sy, w.pt)
	if err := checkTE(w.te, w.p, w.payload, oneClass); err != nil {
		return err
	}
	if !sameResult(w.sy, w.sync) {
		return fmt.Errorf("count exchange differs from the set-up reference")
	}
	if !sameResult(w.pt, w.te) {
		return fmt.Errorf("sweep point differs from a fresh RunSchedule at %d bytes", w.payload)
	}
	return nil
}

func (w *flatCollapsed) run(r *runner, deadline time.Time) error {
	r.offlineLoop(deadline, minOfflineOps,
		func(i int) (int64, error) { return w.op(r, i) },
		func(i int) error { return w.check(r, i) })
	return nil
}

func (w *flatCollapsed) finish(r *runner) error {
	if !r.cfg.trace {
		return nil
	}
	sp := r.tr.spans
	st := w.sw.Stats()
	r.set("platform.machine_build_ms", median(setupDurations(sp, spanMachine)), "")
	r.set("barrier.stream_gen_ms", median(append(durations(sp, spanStreamTE), durations(sp, spanExchange)...)), "")
	te, sy, pts := durations(sp, spanTESym), durations(sp, spanSyncSym), durations(sp, spanSweepPoint)
	r.set("sched.exec_ms.total_exchange_sym", median(te), "")
	r.set("sched.exec_ms.sync_sym", median(sy), "")
	r.set("sched.partition_ms", median(setupDurations(sp, spanPartition)), "standalone CollapseClasses at set-up")
	r.set("sched.sweep_point_ms", median(pts), "")
	r.set("sched.sweep_first_point_ms", median(setupDurations(sp, spanSweepFirst)), "")
	r.set("sched.sweep_tapes_built", float64(st.TapesBuilt-w.stats0.TapesBuilt), "over the timed phase")
	r.set("sched.sweep_tapes_reused", float64(st.TapesReused-w.stats0.TapesReused), "over the timed phase")
	r.set("sched.sweep_memo_mb", float64(st.MemoBytes)/(1<<20), "")
	r.set("sched.sweep_to_live_ratio", ratio(median(pts), median(te)), "base: sched.exec_ms.total_exchange_sym at the same block sizes, same run")
	execNs := (sum(te) + sum(sy)) * 1e6
	n := float64(len(te))
	edges := n * float64(int64(w.p)*int64(w.p-1)+w.sync.Messages)
	r.set("sched.ns_per_edge", ratio(execNs, edges), "collapsed RunSchedule time over messages predicted")
	r.set("sched.collapsed_ns_per_rank", ratio(execNs, n*2*float64(w.p)), "RunSchedule time over ranks predicted")
	return nil
}

func (w *flatCollapsed) close() {
	if w.sw != nil {
		w.sw.Release()
	}
	w.sw, w.m, w.sync, w.te, w.sy, w.pt = nil, nil, nil, nil, nil, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// addPairs adds two equally long series element by element.
func addPairs(a, b []float64) []float64 {
	out := make([]float64, min(len(a), len(b)))
	for i := range out {
		out[i] = a[i] + b[i]
	}
	return out
}
