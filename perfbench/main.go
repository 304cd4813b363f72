// Command perfbench is the repository's layered benchmark. One run executes
// one workload for a fixed wall-clock time and prints every metric by name
// with its unit; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//	hetero-live     fresh sched.RunSchedule calls on a P=2048 heterogeneous
//	                Xeon machine: streaming total exchange, clean and faulty
//	                count exchange, one traced exchange spilled and analysed
//	hetero-sweep    one persistent SweepEvaluator walking a bytes × LogGP
//	                scaling grid on the same machine
//	flat-collapsed  symmetry-collapsed evaluation on a P=262144 flat machine
//	service-mix     two closed-loop keep-alive clients against an in-process
//	                prediction server on loopback
//
// With --trace 0 the run reports the end-to-end metrics (host time; the
// simulated results are only checked). With --trace 1 every other op records
// spans around each call into a layer, and the run reports the per-layer
// metrics, derived from the span self times, plus the traced/untraced op
// ratio. Every run checks the simulated outputs; a failed check fails its
// op and makes "correct" false. NOTES.md lists the metrics and their bases.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hbsp/sim"
)

// processStart approximates the process start: package variables are
// initialized before main runs.
var processStart = time.Now()

// setupReps is how many times a run builds its set-up; setup_s is the median.
const setupReps = 3

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string
}

// metricDef names one reported metric.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of untraced runs, in report order. Their times
// are process CPU time (user + system, all threads), which leaves out the
// time a virtual machine's CPUs are stolen by its host; wall-clock
// latencies are reported too (wall.* per-layer metrics), unbounded.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"sim_msgs_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of traced runs, in report order. A metric whose
// layer a workload does not call reads 0 there (NOTES.md lists which
// workload moves which metric).
var perLayer = []metricDef{
	{"platform.machine_build_ms", "ms"},
	{"platform.machine_mb", "MiB"},
	{"barrier.stream_gen_ms", "ms"},
	{"barrier.pattern_build_ms", "ms"},
	{"sched.exec_ms.total_exchange", "ms"},
	{"sched.exec_ms.sync", "ms"},
	{"sched.exec_ms.sync_fault", "ms"},
	{"sched.exec_ms.total_exchange_sym", "ms"},
	{"sched.exec_ms.sync_sym", "ms"},
	{"sched.ns_per_edge", "ns"},
	{"sched.collapsed_ns_per_rank", "ns"},
	{"sched.partition_ms", "ms"},
	{"sched.sweep_point_ms", "ms"},
	{"sched.sweep_first_point_ms", "ms"},
	{"sched.sweep_tapes_built", "count"},
	{"sched.sweep_tapes_reused", "count"},
	{"sched.sweep_memo_mb", "MiB"},
	{"sched.sweep_to_live_ratio", "ratio"},
	{"sched.collapse_applied_frac", "ratio"},
	{"fault.overhead_ratio", "ratio"},
	{"trace.record_ratio", "ratio"},
	{"trace.spill_mb_per_s", "MiB/s"},
	{"trace.spill_bytes_per_event", "B"},
	{"trace.analyze_ms", "ms"},
	{"server.hit_p50_ms", "ms"},
	{"server.miss_p50_ms.swept", "ms"},
	{"server.miss_p50_ms.session", "ms"},
	{"server.miss_p50_ms.traced", "ms"},
	{"server.sweep_ms_per_point", "ms"},
	{"server.eval_ms_mean", "ms"},
	{"server.overhead_ms_mean", "ms"},
	{"server.cache_hit_frac", "ratio"},
	{"server.coalesced", "count"},
	{"server.shed", "count"},
	{"server.sweep_points_reused_frac", "ratio"},
	{"server.partitions_reused", "count"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_mb_per_op", "MiB"},
	{"go.gc_cpu_frac", "ratio"},
	{"wall.setup_s", "s"},
	{"wall.latency_p50_ms", "ms"},
	{"wall.latency_p90_ms", "ms"},
	{"wall.ops_per_s", "1/s"},
	{"bench.trace_overhead", "ratio"},
	{"self_ms_per_op.bench", "ms"},
	{"self_ms_per_op.barrier", "ms"},
	{"self_ms_per_op.sched", "ms"},
	{"self_ms_per_op.trace", "ms"},
	{"self_ms_per_op.server", "ms"},
}

// workload is one benchmark workload. setup is called setupReps times and
// each call replaces the state of the previous one; rep 0 feeds the digest.
type workload interface {
	setup(r *runner, rep int) error
	// run executes timed ops until the deadline (and at least the
	// workload's minimum op count, which the digest prefix covers).
	run(r *runner, deadline time.Time) error
	// finish runs the post-phase checks and fills the per-layer metrics.
	finish(r *runner) error
	close()
}

// opSample is one timed op.
type opSample struct {
	ms     float64 // wall-clock time
	msgs   int64
	traced bool
}

// runner holds the state of one benchmark run.
type runner struct {
	cfg   config
	host  hostFacts
	tr    *tracer
	dig   *digest // the seed's fixed prefix: set-up rep 0 and the first ops
	all   *digest // every simulated result of the run
	ops   []opSample
	wallS float64 // timed-phase wall time

	// cpuPerOp and msgsPerCPU are the samples the CPU metrics take the
	// median of: one per op, or one per time window where ops overlap.
	cpuPerOp, msgsPerCPU []float64

	attempted, failed int
	failures          []string

	layer map[string]float64
	notes map[string]string // the base of each ratio metric, and counts

	results, collapsed int // simulated results checked, and how many collapsed
}

func newRunner(cfg config) *runner {
	r := &runner{
		cfg:   cfg,
		host:  readHostFacts(cfg),
		tr:    newTracer(processStart),
		dig:   newDigest(),
		all:   newDigest(),
		layer: map[string]float64{},
		notes: map[string]string{},
	}
	for _, m := range perLayer {
		r.layer[m.name] = 0
	}
	return r
}

// fold feeds op i's results to the run digest (and the seed's fixed prefix
// digest for the first ops) and counts their collapse decisions.
func (r *runner) fold(i int, results ...*sim.Result) {
	for _, res := range results {
		r.all.result(res)
		if i < minOfflineOps {
			r.dig.result(res)
		}
		r.results++
		if res.Collapse.Applied {
			r.collapsed++
		}
	}
}

// fail records a failed op (or check) with its reason.
func (r *runner) fail(what string, err error) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// set records a per-layer metric and, optionally, what it is relative to.
func (r *runner) set(name string, v float64, note string) {
	r.layer[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// offlineLoop times ops one after another until the deadline, running at
// least minOps. In traced runs odd ops record spans and even ops do not, so
// the traced/untraced ratio compares ops of the same run. check runs outside
// the op's timing.
func (r *runner) offlineLoop(deadline time.Time, minOps int, op func(i int) (int64, error), check func(i int) error) {
	start := time.Now()
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		traced := r.cfg.trace && i%2 == 1
		r.tr.on, r.tr.op = traced, int32(i)
		id := r.tr.begin("bench", spanOp)
		t0, c0 := time.Now(), cpuSeconds()
		msgs, err := op(i)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		cpu := (cpuSeconds() - c0) * 1e3
		r.tr.end(id)
		r.tr.on, r.tr.op = false, setupOp
		r.attempted++
		r.ops = append(r.ops, opSample{ms: ms, msgs: msgs, traced: traced})
		r.cpuPerOp = append(r.cpuPerOp, cpu)
		r.msgsPerCPU = append(r.msgsPerCPU, ratio(float64(msgs), cpu/1e3))
		if err == nil {
			err = check(i)
		}
		if err != nil {
			r.fail(fmt.Sprintf("op %d", i), err)
		}
	}
	r.wallS = time.Since(start).Seconds()
}

// opTimes returns the durations of the untraced (or traced) ops.
func (r *runner) opTimes(traced bool) []float64 {
	var out []float64
	for _, o := range r.ops {
		if o.traced == traced {
			out = append(out, o.ms)
		}
	}
	return out
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: hetero-live, hetero-sweep, flat-collapsed or service-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.scratch, "scratch", filepath.Join(".bench_build", "scratch"), "directory for spill files and span dumps")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if err := benchmain(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmain(cfg config) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	r := newRunner(cfg)

	// The first set-up counts from process start: its CPU clock is the
	// process' own.
	var setupCPU, setupWall []float64
	for rep := 0; rep < setupReps; rep++ {
		t0, c0 := processStart, 0.0
		if rep > 0 {
			w.close()
			runtime.GC()
			debug.FreeOSMemory()
			t0, c0 = time.Now(), cpuSeconds()
		}
		r.tr.on = cfg.trace
		err := w.setup(r, rep)
		r.tr.on = false
		if err != nil {
			w.close()
			return fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setupCPU = append(setupCPU, cpuSeconds()-c0)
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	defer w.close()

	before := readRuntime()
	if err := w.run(r, time.Now().Add(time.Duration(cfg.seconds*float64(time.Second)))); err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	after := readRuntime()
	if err := w.finish(r); err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if r.attempted == 0 {
		return errors.New("no op was attempted")
	}

	n := float64(len(r.ops))
	r.set("sched.collapse_applied_frac", ratio(float64(r.collapsed), float64(r.results)),
		fmt.Sprintf("base: %d simulated results checked", r.results))
	r.set("go.allocs_per_op", (after.allocs-before.allocs)/n, "")
	r.set("go.alloc_mb_per_op", (after.allocBytes-before.allocBytes)/n/(1<<20), "")
	r.set("go.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "base: all CPU time of the process over the timed phase")

	var msgs int64
	for _, o := range r.ops {
		msgs += o.msgs
	}
	all := make([]float64, len(r.ops))
	for i, o := range r.ops {
		all[i] = o.ms
	}
	r.set("wall.setup_s", median(setupWall), "median of the set-ups' wall-clock times: "+floats(setupWall, 3))
	r.set("wall.latency_p50_ms", median(all), fmt.Sprintf("n=%d ops", len(all)))
	r.set("wall.latency_p90_ms", quantile(all, 0.9), fmt.Sprintf("n=%d ops", len(all)))
	r.set("wall.ops_per_s", ratio(n, r.wallS), fmt.Sprintf("over %.1f s", r.wallS))
	fmt.Printf("wall: setup %.4g s, latency p50 %.4g ms p90 %.4g ms (n=%d), %.4g ops/s\n",
		r.layer["wall.setup_s"], r.layer["wall.latency_p50_ms"], r.layer["wall.latency_p90_ms"], len(all), r.layer["wall.ops_per_s"])

	var out []reported
	if cfg.trace {
		traced, untraced := r.opTimes(true), r.opTimes(false)
		r.set("bench.trace_overhead", ratio(median(traced), median(untraced)),
			fmt.Sprintf("base: median untraced op of the same run (%d traced, %d untraced ops)", len(traced), len(untraced)))
		self := layerSelfPerOp(r.tr.spans, len(traced))
		for _, layer := range []string{"bench", "barrier", "sched", "trace", "server"} {
			r.set("self_ms_per_op."+layer, self[layer], "")
		}
		for _, m := range perLayer {
			out = append(out, reported{m, r.layer[m.name], r.notes[m.name]})
		}
		path := filepath.Join(cfg.scratch, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, r.host, r.tr.spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), path)
	} else {
		values := map[string]float64{
			"setup_s":            median(setupCPU),
			"cpu_ms_per_op":      median(r.cpuPerOp),
			"sim_msgs_per_cpu_s": median(r.msgsPerCPU),
			"peak_rss_mb":        peakRSSMiB(),
		}
		fmt.Printf("cpu_ms_per_op samples: %s\n", floats(r.cpuPerOp, 3))
		notes := map[string]string{
			"setup_s":            "process CPU, median of the set-ups: " + floats(setupCPU, 3),
			"cpu_ms_per_op":      fmt.Sprintf("median of %d samples, %d ops", len(r.cpuPerOp), len(r.ops)),
			"sim_msgs_per_cpu_s": fmt.Sprintf("median of %d samples, %d messages", len(r.msgsPerCPU), msgs),
		}
		for _, m := range endToEnd {
			out = append(out, reported{m, values[m.name], notes[m.name]})
		}
	}
	return report(r, out)
}

type reported struct {
	def   metricDef
	value float64
	note  string
}

// report prints the run's facts and metrics; the last line is the result
// object.
func report(r *runner, out []reported) error {
	host, err := json.Marshal(r.host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", host)
	fmt.Printf("digest %s (seed %d, set-up and first ops); digest_all %s (%d ops)\n", r.dig.hex(), r.cfg.seed, r.all.hex(), len(r.ops))
	for _, f := range r.failures {
		fmt.Printf("FAILED %s\n", f)
	}
	fmt.Printf("failed_frac %g (%d of %d ops)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, o := range out {
		line := fmt.Sprintf("metric %-34s %14.6g %s", o.def.name, o.value, o.def.unit)
		if o.note != "" {
			line += "  (" + o.note + ")"
		}
		fmt.Println(line)
		metrics[o.def.name] = value{o.value, o.def.unit}
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

func floats(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(parts, " ")
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "hetero-live":
		return &heteroLive{p: 2048, seed: seed}, nil
	case "hetero-sweep":
		return &heteroSweep{p: 2048, seed: seed}, nil
	case "flat-collapsed":
		return &flatCollapsed{p: 262144, seed: seed}, nil
	case "service-mix":
		return &serviceMix{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown --workload %q (hetero-live, hetero-sweep, flat-collapsed, service-mix)", name)
}

// hostFacts identify what a result was measured on.
type hostFacts struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func readHostFacts(cfg config) hostFacts {
	h := hostFacts{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown (not built from a git checkout)",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += "+modified"
			}
		}
	}
	return h
}

// cpuSeconds returns the process' CPU time so far, user plus system, over
// all its threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMiB reads the process' peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample is a snapshot of the Go runtime counters the go.* metrics
// difference.
type runtimeSample struct {
	allocs, allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	v := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return runtimeSample{allocs: v[0], allocBytes: v[1], gcCPU: v[2], totalCPU: v[3]}
}

// heapLiveMiB forces a collection and returns the live heap, for the memory
// footprint of one structure (traced runs only: the collection costs time).
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
