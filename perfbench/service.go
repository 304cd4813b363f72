package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	"hbsp/fault"
	"hbsp/server"
)

// The service-mix workload: two closed-loop keep-alive clients (each sends
// its next request when the previous reply has been read to the last byte)
// against an in-process server.New on loopback. Request i is a pure
// function of (seed, i):
//
//	~20% repeats of an earlier request (cache hits)
//	~40% cold swept-path collectives and barriers
//	~25% cold session-path requests (sync, stencil, program op-streams,
//	     a third of them on the concurrent engine)
//	~5%  traced requests (path and rollup views)
//	~10% NDJSON sweeps of 8–16 points
//
// and about one cold request in ten carries a fault plan. Cold requests use
// fresh seeds (and fresh block sizes where the workload has one), so they
// miss the result cache; set-up sends one request per shape first, so the
// machine, pattern and evaluator caches are warm. Rank counts stop at 512:
// the collective path builds dense P×P payload matrices (see NOTES.md).

// cpuWindow is the length of the CPU sampling windows.
const cpuWindow = time.Second

const (
	// maxTotalExchangeProcs caps the total-exchange shapes: a cold
	// total exchange builds one dense P×P payload matrix per stage, ~1.2 GB
	// per request at P=512 (see NOTES.md).
	maxTotalExchangeProcs = 64
	serviceClients        = 2
	minServiceOps         = 64 // the digest prefix: every run completes these requests
	repeatWindow          = 64
)

// Request classes.
const (
	classRepeat  = "repeat"
	classSwept   = "swept"
	classSession = "session"
	classTraced  = "traced"
	classSweep   = "sweep"
)

// shape is the cache-relevant part of a request: profile, rank count,
// workload kind and variant, engine and trace view. Timed requests of one
// shape differ only in seed, block size, compute time or fault plan.
type shape struct {
	class   string
	preset  string
	procs   int
	kind    string
	variant string
	engine  string
	view    string
}

// svcRequest is one generated request.
type svcRequest struct {
	index  int
	class  string
	shape  shape
	body   []byte
	points int // NDJSON lines expected (1 for single points)
	faulty bool
}

var (
	sweptShapes   []shape
	sessionShapes []shape
	tracedShapes  []shape
	sweepShapes   []shape
)

func init() {
	machines := []struct {
		preset string
		procs  int
	}{{"xeon-cluster", 64}, {"xeon-cluster", 256}, {"xeon-cluster", 512}, {"flat-cluster", 64}, {"flat-cluster", 256}, {"flat-cluster", 512}, {"fattree-4p4", 16}}
	for _, m := range machines {
		for _, v := range []string{"dissemination", "tree", "linear"} {
			sweptShapes = append(sweptShapes, shape{class: classSwept, preset: m.preset, procs: m.procs, kind: "barrier", variant: v, engine: "auto"})
		}
		for _, k := range []string{"allreduce", "broadcast", "allgather", "totalexchange"} {
			if k == "totalexchange" && m.procs > maxTotalExchangeProcs {
				continue
			}
			sweptShapes = append(sweptShapes, shape{class: classSwept, preset: m.preset, procs: m.procs, kind: k, engine: "auto"})
		}
	}
	for _, m := range []struct {
		preset string
		procs  int
	}{{"xeon-cluster", 64}, {"xeon-cluster", 256}, {"flat-cluster", 64}, {"flat-cluster", 256}, {"fattree-4p4", 16}} {
		for _, v := range []string{"dissemination", "schedule"} {
			sessionShapes = append(sessionShapes, shape{class: classSession, preset: m.preset, procs: m.procs, kind: "sync", variant: v, engine: "auto"})
		}
		if m.procs <= 64 {
			sessionShapes = append(sessionShapes, shape{class: classSession, preset: m.preset, procs: m.procs, kind: "sync", variant: "dissemination", engine: "concurrent"})
		}
	}
	for _, m := range []struct {
		preset string
		procs  int
	}{{"xeon-cluster", 16}, {"xeon-cluster", 64}, {"fattree-4p4", 16}} {
		sessionShapes = append(sessionShapes,
			shape{class: classSession, preset: m.preset, procs: m.procs, kind: "stencil", engine: "auto"},
			shape{class: classSession, preset: m.preset, procs: m.procs, kind: "program", engine: "auto"},
			shape{class: classSession, preset: m.preset, procs: m.procs, kind: "program", engine: "concurrent"})
	}
	for _, m := range []struct {
		preset string
		procs  int
	}{{"xeon-cluster", 64}, {"flat-cluster", 64}} {
		for _, view := range []string{"path", "rollup"} {
			for _, k := range []string{"allreduce", "barrier", "sync"} {
				tracedShapes = append(tracedShapes, shape{class: classTraced, preset: m.preset, procs: m.procs, kind: k, engine: "auto", view: view})
			}
		}
		for _, k := range []string{"allreduce", "allgather", "totalexchange"} {
			sweepShapes = append(sweepShapes, shape{class: classSweep, preset: m.preset, procs: m.procs, kind: k, engine: "auto"})
		}
	}
}

// blockSizes are the block sizes of the data collectives. The server caches
// one dense pattern per (collective, P, block size) in a 64-entry cache;
// four sizes keep every shape's patterns resident after set-up.
var blockSizes = [...]int{8, 64, 512, 4096}

// sweepScaleSpecs are the scale axis values of the NDJSON sweeps; fixed, so
// set-up builds every scaled machine once.
var sweepScaleSpecs = []server.ScaleSpec{{}, {Latency: 1.5}, {Beta: 2}, {Latency: 0.5, Gap: 0.5, Beta: 0.5, Overhead: 0.5}}

// requestClass picks request i's class from its draw.
func requestClass(seed int64, i int) string {
	switch d := mix(seed, uint64(i)) % 100; {
	case d < 20 && i >= 8:
		return classRepeat
	case d < 60:
		return classSwept
	case d < 85:
		return classSession
	case d < 90:
		return classTraced
	default:
		return classSweep
	}
}

// requestOrigin follows repeats back to the cold request they repeat.
func requestOrigin(seed int64, i int) int {
	for requestClass(seed, i) == classRepeat {
		back := 3 + int(mix(seed^0x5eed, uint64(i))%(repeatWindow-3))
		if back > i {
			back = i
		}
		i -= back
	}
	return i
}

// genRequest builds request i of the seed's sequence.
func genRequest(seed int64, i int) (svcRequest, error) {
	o := requestOrigin(seed, i)
	req, err := genCold(seed, o)
	if err != nil {
		return req, err
	}
	req.index = i
	if o != i {
		req.class = classRepeat
	}
	return req, nil
}

// genCold builds the cold request at index i (its class is not a repeat).
func genCold(seed int64, i int) (svcRequest, error) {
	d := func(k uint64) uint64 { return mix(seed+int64(k)*0x1000193, uint64(i)) }
	class := requestClass(seed, i)
	var sh shape
	switch class {
	case classSwept:
		sh = sweptShapes[d(1)%uint64(len(sweptShapes))]
	case classSession:
		sh = sessionShapes[d(1)%uint64(len(sessionShapes))]
	case classTraced:
		sh = tracedShapes[d(1)%uint64(len(tracedShapes))]
	default:
		sh = sweepShapes[d(1)%uint64(len(sweepShapes))]
	}
	// Fresh per request: seeds never repeat within or across sequences of
	// one seed, so a cold request always misses the result cache.
	runSeed := int64(1<<40) + seed<<20 + int64(i)
	var plan *fault.Plan
	if class != classSweep && d(2)%10 == 0 {
		plan = &fault.Plan{
			Seed:      int64(d(3) % 1000),
			Slowdowns: []fault.Slowdown{{Rank: int(d(4) % uint64(sh.procs)), Factor: 1.25 + float64(d(5)%8)/8}},
			Links:     []fault.LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 1.5, BetaFactor: 1.5, Start: 0, End: 1e-4}},
		}
	}
	req := requestFor(sh, runSeed, blockSizes[d(6)%uint64(len(blockSizes))], 1e-6*float64(1+d(7)%20), plan, d(8))
	points := 1
	if class == classSweep {
		nb := 2 + int(d(9)%3) // 2..4 block sizes × 4 scalings = 8..16 points
		first := int(d(6) % uint64(len(blockSizes)))
		req.Sweep = &server.SweepSpec{Scale: sweepScaleSpecs}
		for b := 0; b < nb; b++ {
			req.Sweep.Bytes = append(req.Sweep.Bytes, blockSizes[(first+b)%len(blockSizes)])
		}
		points = len(req.Sweep.Bytes) * len(sweepScaleSpecs)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return svcRequest{}, err
	}
	return svcRequest{index: i, class: class, shape: sh, body: body, points: points, faulty: plan != nil}, nil
}

// requestFor renders a shape with the given fresh inputs.
func requestFor(sh shape, runSeed int64, blockBytes int, computeSeconds float64, plan *fault.Plan, progDraw uint64) server.PredictRequest {
	req := server.PredictRequest{
		Profile: server.ProfileSpec{Preset: sh.preset},
		Procs:   sh.procs,
		Seed:    &runSeed,
		Faults:  plan,
		Options: server.OptionsSpec{Engine: sh.engine},
	}
	w := server.WorkloadSpec{Kind: sh.kind, Variant: sh.variant}
	switch sh.kind {
	case "allreduce", "broadcast", "allgather", "totalexchange":
		w.Bytes = blockBytes
	case "sync":
		w.Supersteps = 3
		w.ComputeSeconds = computeSeconds
	case "stencil":
		w.Grid, w.Iterations = 128, 2
	case "program":
		w.Ranks = ringProgram(sh.procs, computeSeconds, blockBytes, progDraw)
	}
	req.Workload = w
	if sh.class == classTraced {
		req.Options.Trace = true
		req.Options.TraceView = sh.view
	}
	return req
}

// ringProgram is a two-round op-stream: each rank computes, sends a block to
// its right neighbour, receives from its left one and waits for both.
func ringProgram(p int, seconds float64, bytes int, draw uint64) [][]server.OpSpec {
	ranks := make([][]server.OpSpec, p)
	for r := range ranks {
		var ops []server.OpSpec
		for round := 0; round < 2; round++ {
			skew := 1 + float64((draw>>uint(r%32))&3)/4
			ops = append(ops,
				server.OpSpec{Op: "compute", Seconds: seconds * skew},
				server.OpSpec{Op: "isend", To: (r + 1) % p, Tag: round, Bytes: bytes},
				server.OpSpec{Op: "irecv", From: (r + p - 1) % p, Tag: round},
				server.OpSpec{Op: "wait", Req: 2 * round},
				server.OpSpec{Op: "wait", Req: 2*round + 1},
			)
		}
		ranks[r] = ops
	}
	return ranks
}

// warmupRequests returns one request per shape and block size, with seeds
// no timed request uses.
func warmupRequests() ([][]byte, error) {
	var out [][]byte
	n := 0
	for _, group := range [][]shape{sweptShapes, sessionShapes, tracedShapes, sweepShapes} {
		for _, sh := range group {
			sizes := blockSizes[:1]
			if sh.class == classSwept && sh.kind != "barrier" {
				sizes = blockSizes[:]
			}
			for _, bytes := range sizes {
				n++
				req := requestFor(sh, int64(n), bytes, 5e-6, nil, uint64(n))
				if sh.class == classSweep {
					req.Sweep = &server.SweepSpec{Bytes: blockSizes[:], Scale: sweepScaleSpecs}
				}
				body, err := json.Marshal(req)
				if err != nil {
					return nil, err
				}
				out = append(out, body)
			}
		}
	}
	return out, nil
}

// svcResult is one response: what the client timed and received, and
// what the checks after the timed phase found in it.
type svcResult struct {
	ms     float64
	traced bool
	window int // the CPU window the reply completed in
	status int
	cache  string // X-Hbspd-Cache: hit, miss or coalesced (single points)
	body   []byte
	err    error

	msgs    int64 // simulated messages of evaluated (not cached) points
	applied int   // points that collapsed
}

type serviceMix struct {
	seed   int64
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	m0      server.MetricsSnapshot
	results []svcResult
	classes []string // request classes, by index
	points  []int    // points per request, by index
}

func (w *serviceMix) setup(r *runner, rep int) error {
	w.srv = server.New(server.Config{MachineEntries: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String() + "/v1/predict"
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serviceClients,
		DisableCompression:  true,
	}}
	warm, err := warmupRequests()
	if err != nil {
		return err
	}
	for i, body := range warm {
		id := r.tr.begin("server", "POST /v1/predict warm-up")
		status, _, _, err := w.post(body)
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: HTTP %d: %s", i, status, body)
		}
	}
	if r.cfg.trace {
		return probeLayers(r)
	}
	return nil
}

// probeLayers times, in traced runs only, the layer calls the server makes
// on a cold cache for each warm-up shape: the machine build and the verified
// dense pattern the swept collectives run.
func probeLayers(r *runner) error {
	built := map[string]bool{}
	cache := bsp.NewScheduleCache()
	for _, sh := range sweptShapes {
		if key := fmt.Sprint(sh.preset, sh.procs); !built[key] {
			built[key] = true
			prof := cluster.FlatCluster(sh.procs)
			switch sh.preset {
			case "xeon-cluster":
				prof = cluster.XeonCluster(max(8, (sh.procs+7)/8))
			case "fattree-4p4":
				prof = cluster.FatTreeCluster(4, 4)
			}
			id := r.tr.begin("platform", spanMachine)
			_, err := prof.Machine(sh.procs)
			r.tr.end(id)
			if err != nil {
				return err
			}
		}
		id := r.tr.begin("barrier", spanPattern)
		err := buildPattern(cache, sh)
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("pattern %s P=%d: %w", sh.kind, sh.procs, err)
		}
	}
	return nil
}

// buildPattern builds and verifies a swept shape's dense pattern through the
// generators the server's pattern caches call.
func buildPattern(cache bsp.ScheduleSource, sh shape) error {
	if sh.kind != "barrier" {
		sem := map[string]collective.Semantics{
			"allreduce": collective.SemAllReduce, "broadcast": collective.SemBroadcast,
			"allgather": collective.SemAllGather, "totalexchange": collective.SemTotalExchange,
		}[sh.kind]
		_, err := cache.Schedule(sem, sh.procs, 0, 64)
		return err
	}
	var (
		pat *collective.Pattern
		err error
	)
	switch sh.variant {
	case "dissemination":
		pat, err = collective.Dissemination(sh.procs)
	case "tree":
		pat, err = collective.Tree(sh.procs)
	default:
		pat, err = collective.Linear(sh.procs, 0)
	}
	if err != nil {
		return err
	}
	return pat.Verify()
}

// post sends one request and reads the reply to its last byte.
func (w *serviceMix) post(body []byte) (status int, cache string, reply []byte, err error) {
	resp, err := w.client.Post(w.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Hbspd-Cache"), reply, err
}

func (w *serviceMix) run(r *runner, deadline time.Time) error {
	w.m0 = w.srv.Metrics()
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs = make([]error, serviceClients)
	)
	results := map[int]svcResult{}
	tracers := make([]*tracer, serviceClients)
	start := time.Now()
	// The sampler reads the process CPU clock once per window; the CPU
	// metrics are medians over the windows of the timed phase.
	var cpuAt []float64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(cpuWindow)
		defer tick.Stop()
		cpuAt = append(cpuAt, cpuSeconds())
		for {
			select {
			case <-tick.C:
				cpuAt = append(cpuAt, cpuSeconds())
			case <-stop:
				return
			}
		}
	}()
	for c := 0; c < serviceClients; c++ {
		tracers[c] = newTracer(r.tr.epoch)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := tracers[c]
			for {
				i := int(next.Add(1) - 1)
				if i >= minServiceOps && !time.Now().Before(deadline) {
					return
				}
				req, err := genRequest(w.seed, i)
				if err != nil {
					errs[c] = err
					return
				}
				res := w.do(tr, r.cfg.trace && i%2 == 1, req)
				res.window = int(time.Since(start) / cpuWindow)
				mu.Lock()
				results[i] = res
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	r.wallS = time.Since(start).Seconds()
	close(stop)
	<-sampled
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, tr := range tracers {
		r.tr.spans = appendSpans(r.tr.spans, tr.spans)
	}
	// Checks and the digest walk the requests in index order, so both are a
	// function of the seed whatever order the clients finished in.
	w.results = make([]svcResult, len(results))
	w.classes = make([]string, len(results))
	w.points = make([]int, len(results))
	bodies := map[int][32]byte{}
	for i := range w.results {
		res, ok := results[i]
		if !ok {
			return fmt.Errorf("request %d never completed", i)
		}
		req, err := genRequest(w.seed, i)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(res.body)
		err = res.err
		if err == nil && res.status != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %.200s", res.status, res.body)
		}
		if err == nil {
			err = checkReply(req, res.cache, res.body, &res)
		}
		if err == nil {
			o := requestOrigin(w.seed, i)
			if first, ok := bodies[o]; !ok {
				bodies[o] = sum
			} else if first != sum {
				err = fmt.Errorf("body differs from request %d's, which it repeats", o)
			}
		}
		if err != nil {
			r.fail(fmt.Sprintf("request %d (%s)", i, req.class), err)
		}
		res.body = nil
		w.results[i], w.classes[i], w.points[i] = res, req.class, req.points
		r.attempted++
		r.ops = append(r.ops, opSample{ms: res.ms, msgs: res.msgs, traced: res.traced})
		r.results += req.points
		r.collapsed += res.applied
		if i < minServiceOps {
			r.dig.bytes(sum[:])
		}
		r.all.bytes(sum[:])
	}
	// Only windows the sampler closed count; the last, partial one does not.
	for k := 0; k+1 < len(cpuAt); k++ {
		var n, msgs int64
		for _, res := range w.results {
			if res.window == k {
				n++
				msgs += res.msgs
			}
		}
		cpu := cpuAt[k+1] - cpuAt[k]
		r.cpuPerOp = append(r.cpuPerOp, ratio(cpu*1e3, float64(n)))
		r.msgsPerCPU = append(r.msgsPerCPU, ratio(float64(msgs), cpu))
	}
	return nil
}

// appendSpans merges a client's spans, rebasing their parent ids.
func appendSpans(dst, src []span) []span {
	base := int32(len(dst))
	for _, s := range src {
		if s.Parent >= 0 {
			s.Parent += base
		}
		dst = append(dst, s)
	}
	return dst
}

// do sends one request, timing it from send to the last body byte.
func (w *serviceMix) do(tr *tracer, traced bool, req svcRequest) svcResult {
	tr.on, tr.op = traced, int32(req.index)
	op := tr.begin("bench", spanOp)
	id := tr.begin("server", "POST /v1/predict "+req.class)
	t0 := time.Now()
	status, cache, body, err := w.post(req.body)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(id)
	tr.end(op)
	tr.on = false
	return svcResult{ms: ms, traced: traced, status: status, cache: cache, body: body, err: err}
}

// checkReply parses a reply's points and checks their count and collapse
// decisions. Cache hits evaluated nothing, so their messages do not count.
func checkReply(req svcRequest, cache string, body []byte, res *svcResult) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	n := 0
	for sc.Scan() {
		var pt struct {
			server.PredictPoint
			Error *struct{ Message string } `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &pt); err != nil {
			return fmt.Errorf("point %d: %w", n, err)
		}
		if pt.Error != nil {
			return fmt.Errorf("point %d: %s", n, pt.Error.Message)
		}
		if err := checkCollapseInfo(req, pt.Collapse); err != nil {
			return fmt.Errorf("point %d: %w", n, err)
		}
		if pt.Collapse.Applied {
			res.applied++
		}
		if cache != "hit" {
			res.msgs += pt.Messages
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n != req.points {
		return fmt.Errorf("%d points, want %d", n, req.points)
	}
	return nil
}

// checkCollapseInfo checks a point's collapse decision against what its
// request implies: tracing forces per-rank evaluation; the heterogeneous
// Xeon preset never collapses; on the homogeneous presets a schedule
// collapses unless its stage graph is asymmetric (rooted and linear
// patterns, skewed supersteps) or a fault plan singles out a rank; the
// concurrent engine and op-stream programs never collapse.
func checkCollapseInfo(req svcRequest, c server.CollapseInfo) error {
	sh := req.shape
	var ok bool
	switch {
	case sh.engine == "concurrent" || sh.kind == "program" || sh.kind == "stencil":
		ok = !c.Applied
	case sh.class == classTraced:
		// The machine's and the fault plan's reasons are reported before
		// the recorder's.
		ok = !c.Applied && (c.Reason == "trace" || sh.preset == "xeon-cluster" && c.Reason == "hetero" || req.faulty && c.Reason == "fault")
	case sh.preset == "xeon-cluster":
		ok = !c.Applied && c.Reason == "hetero"
	default:
		ok = (c.Applied && c.Classes >= 1) || c.Reason == "asymmetric" || (req.faulty && c.Reason == "fault")
	}
	if !ok {
		return fmt.Errorf("%s %s on %s P=%d: unexpected collapse %+v", sh.kind, sh.variant, sh.preset, sh.procs, c)
	}
	return nil
}

func (w *serviceMix) finish(r *runner) error {
	if !r.cfg.trace {
		return nil
	}
	m1 := w.srv.Metrics()
	var hits, swept, session, traced, singleMiss []float64
	var sweepMs float64
	sweepPoints := 0
	for i, res := range w.results {
		switch {
		case w.classes[i] == classSweep:
			sweepMs += res.ms
			sweepPoints += w.points[i]
		case res.cache == "hit":
			hits = append(hits, res.ms)
		default:
			singleMiss = append(singleMiss, res.ms)
			switch w.classes[i] {
			case classSwept:
				swept = append(swept, res.ms)
			case classSession:
				session = append(session, res.ms)
			case classTraced:
				traced = append(traced, res.ms)
			}
		}
	}
	evals := float64(m1.Eval.Count - w.m0.Eval.Count)
	evalMs := ratio(float64(m1.Eval.SumNs-w.m0.Eval.SumNs)/1e6, evals)
	points := float64(m1.Points - w.m0.Points)
	misses := float64(m1.CacheMisses - w.m0.CacheMisses)
	sp := r.tr.spans
	r.set("platform.machine_build_ms", median(setupDurations(sp, spanMachine)), "direct Profile.Machine for each warm-up machine")
	r.set("barrier.pattern_build_ms", median(setupDurations(sp, spanPattern)), "dense pattern + Verify for each swept warm-up shape")
	r.set("server.hit_p50_ms", median(hits), fmt.Sprintf("n=%d", len(hits)))
	r.set("server.miss_p50_ms.swept", median(swept), fmt.Sprintf("n=%d", len(swept)))
	r.set("server.miss_p50_ms.session", median(session), fmt.Sprintf("n=%d", len(session)))
	r.set("server.miss_p50_ms.traced", median(traced), fmt.Sprintf("n=%d", len(traced)))
	r.set("server.sweep_ms_per_point", ratio(sweepMs, float64(sweepPoints)), fmt.Sprintf("n=%d points", sweepPoints))
	r.set("server.eval_ms_mean", evalMs, fmt.Sprintf("evalNs delta over %.0f evaluations", evals))
	r.set("server.overhead_ms_mean", mean(singleMiss)-evalMs, "base: mean client latency of single-point misses")
	r.set("server.cache_hit_frac", ratio(float64(m1.CacheHits-w.m0.CacheHits), points), fmt.Sprintf("base: %.0f points served", points))
	r.set("server.coalesced", float64(m1.Coalesced-w.m0.Coalesced), "")
	r.set("server.shed", float64(m1.Shed-w.m0.Shed), "")
	r.set("server.sweep_points_reused_frac", ratio(float64(m1.SweepPointsReused-w.m0.SweepPointsReused), misses), fmt.Sprintf("base: %.0f evaluated points", misses))
	r.set("server.partitions_reused", float64(m1.PartitionsReused-w.m0.PartitionsReused), "")
	return nil
}

func (w *serviceMix) close() {
	if w.hs == nil {
		return
	}
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx)
	<-w.served
	w.hs, w.srv, w.client, w.results, w.classes, w.points = nil, nil, nil, nil, nil, nil
}
