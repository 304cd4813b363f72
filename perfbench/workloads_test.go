package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"hbsp/server"
)

// runSmall runs a workload's set-up once and its minimum op count, traced,
// and returns the runner.
func runSmall(t *testing.T, w workload) *runner {
	t.Helper()
	r := newRunner(config{workload: "test", seed: 7, seconds: 1, trace: true, scratch: t.TempDir()})
	r.tr.on = true
	if err := w.setup(r, 0); err != nil {
		t.Fatal(err)
	}
	r.tr.on = false
	defer w.close()
	if err := w.run(r, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := w.finish(r); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d failed checks: %v", r.failed, r.failures)
	}
	return r
}

// opCalls lists the layer calls of each traced op, in call order.
func opCalls(r *runner) map[int32][]string {
	out := map[int32][]string{}
	for _, s := range r.tr.spans {
		if s.Op != setupOp && s.Name != spanOp {
			out[s.Op] = append(out[s.Op], s.Name)
		}
	}
	return out
}

// TestOpUnits pins what one op is for each offline workload — exactly the
// calls the workload lists, each RunSchedule call one execution — and that
// a second run with the same seed reproduces the digest.
func TestOpUnits(t *testing.T) {
	for _, c := range []struct {
		name  string
		make  func() workload
		calls []string
		msgs  func(p int64) int64 // simulated messages of one op
		p     int64
	}{
		{"hetero-live", func() workload { return &heteroLive{p: 64, seed: 7} },
			[]string{spanStreamTE, spanTE, spanExchange, spanSync, spanSyncFault, spanSpillTo, spanSyncTraced, spanOpenSpill, spanRollup},
			nil, 64},
		{"hetero-sweep", func() workload { return &heteroSweep{p: 64, seed: 7} },
			[]string{spanStreamTE, spanSweepPoint},
			func(p int64) int64 { return p * (p - 1) }, 64},
		{"flat-collapsed", func() workload { return &flatCollapsed{p: 256, seed: 7} },
			[]string{spanStreamTE, spanTESym, spanExchange, spanSyncSym, spanStreamTE, spanSweepPoint},
			nil, 256},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := runSmall(t, c.make())
			calls := opCalls(r)
			if len(r.ops) != minOfflineOps || len(calls) != minOfflineOps/2 {
				t.Fatalf("%d ops, %d traced", len(r.ops), len(calls))
			}
			for op, got := range calls {
				if !slices.Equal(got, c.calls) {
					t.Errorf("op %d calls %v, want %v", op, got, c.calls)
				}
			}
			if c.msgs != nil {
				for i, o := range r.ops {
					if o.msgs != c.msgs(c.p) {
						t.Errorf("op %d: %d messages, want one execution's %d", i, o.msgs, c.msgs(c.p))
					}
				}
			}
			// Ops of one workload evaluate the same schedules: equal message
			// counts whatever the block size.
			for _, o := range r.ops {
				if o.msgs != r.ops[0].msgs {
					t.Errorf("op message counts differ: %+v", r.ops)
				}
			}
			again := runSmall(t, c.make())
			if again.dig.hex() != r.dig.hex() {
				t.Errorf("same seed, digests %s and %s", r.dig.hex(), again.dig.hex())
			}
		})
	}
}

// TestLiveOpMessages checks hetero-live's op against its parts: one total
// exchange execution (P(P−1) messages) plus three count exchanges.
func TestLiveOpMessages(t *testing.T) {
	w := &heteroLive{p: 64, seed: 7}
	r := runSmall(t, w)
	want := int64(64*63) + 3*w.sync.Messages
	for i, o := range r.ops {
		if o.msgs != want {
			t.Errorf("op %d: %d messages, want %d", i, o.msgs, want)
		}
	}
}

func TestOfflineInputsDeterministic(t *testing.T) {
	a, b := sweepGridBytes(3, 256), sweepGridBytes(3, 256)
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different sweep grids")
	}
	if slices.Equal(a, sweepGridBytes(4, 256)) {
		t.Error("the seed does not change the sweep grid")
	}
	seen := map[int]bool{}
	for _, v := range a {
		if seen[v] || v <= 0 || v%8 != 0 {
			t.Fatalf("grid block size %d repeats or is malformed", v)
		}
		seen[v] = true
	}
	for i := 0; i < 100; i++ {
		if p := livePayload(3, i); p != livePayload(3, i) || p < 8 || p > 1024 {
			t.Fatalf("op %d payload %d", i, p)
		}
	}
}

func TestServiceSequence(t *testing.T) {
	const n = 2000
	counts := map[string]int{}
	cold := map[string]int{}
	for i := 0; i < n; i++ {
		a, err := genRequest(11, i)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genRequest(11, i)
		if !bytes.Equal(a.body, b.body) {
			t.Fatalf("request %d differs between two generations", i)
		}
		counts[a.class]++
		o := requestOrigin(11, i)
		if a.class == classRepeat {
			ob, _ := genRequest(11, o)
			if o >= i || ob.class == classRepeat || !bytes.Equal(a.body, ob.body) {
				t.Fatalf("request %d repeats %d (%s)", i, o, ob.class)
			}
			continue
		}
		if j, dup := cold[string(a.body)]; dup {
			t.Fatalf("cold requests %d and %d are identical", j, i)
		}
		cold[string(a.body)] = i
		var req server.PredictRequest
		if err := json.Unmarshal(a.body, &req); err != nil {
			t.Fatal(err)
		}
		if req.Procs > 512 {
			t.Errorf("request %d at P=%d", i, req.Procs)
		}
	}
	for class, lo := range map[string]float64{classRepeat: 0.15, classSwept: 0.33, classSession: 0.2, classTraced: 0.03, classSweep: 0.07} {
		if f := float64(counts[class]) / n; f < lo || f > lo+0.1 {
			t.Errorf("%s share %.3f", class, f)
		}
	}
	other, _ := genRequest(12, 100)
	same, _ := genRequest(11, 100)
	if bytes.Equal(other.body, same.body) {
		t.Error("the seed does not change the request sequence")
	}
}

// TestServiceRun drives the real server through set-up and the digest
// prefix twice: one op is one request, every check passes, and the digest
// repeats.
func TestServiceRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and sends a few hundred requests")
	}
	var digests []string
	for k := 0; k < 2; k++ {
		r := runSmall(t, &serviceMix{seed: 5})
		if len(r.ops) < minServiceOps {
			t.Fatalf("%d requests", len(r.ops))
		}
		for op, calls := range opCalls(r) {
			if len(calls) != 1 {
				t.Errorf("request %d made calls %v", op, calls)
			}
		}
		digests = append(digests, r.dig.hex())
	}
	if digests[0] != digests[1] {
		t.Errorf("same seed, digests %v", digests)
	}
}
