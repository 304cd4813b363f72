package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hbsp/fault"
)

// TestSweepReuseMetrics asserts that the /metrics reuse counters move while an
// NDJSON sweep streams: a scale sweep keeps the schedule structure fixed, so
// every point after the first replays the pooled evaluator's memoized term
// tape (sweepPointsReused) and its cached partition decision
// (partitionsReused).
func TestSweepReuseMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	before := s.Metrics()

	body := `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"totalexchange","bytes":64},"procs":8,` +
		`"sweep":{"scale":[{},{"latency":2},{"latency":4},{"gap":2}]}}`
	resp, data := predict(t, ts, body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), data)
	}
	for _, line := range lines {
		var p PredictPoint
		if err := json.Unmarshal(line, &p); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if p.MakeSpan <= 0 {
			t.Fatalf("non-positive makespan in %q", line)
		}
	}

	after := s.Metrics()
	if after.SweepPointsReused <= before.SweepPointsReused {
		t.Errorf("sweepPointsReused did not move: before %d, after %d",
			before.SweepPointsReused, after.SweepPointsReused)
	}
	if after.PartitionsReused <= before.PartitionsReused {
		t.Errorf("partitionsReused did not move: before %d, after %d",
			before.PartitionsReused, after.PartitionsReused)
	}

	// The counters are served over HTTP too; spot-check the JSON field names.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics decode: %v", err)
	}
	if snap.SweepPointsReused != after.SweepPointsReused {
		t.Errorf("/metrics sweepPointsReused = %d, want %d", snap.SweepPointsReused, after.SweepPointsReused)
	}
}

// TestSweptMatchesSession pins the bit-identity contract of the pooled
// sweep-evaluator path at the server layer: for every eligible point —
// including fault plans, non-default seeds, per-rank vectors and scaled
// profiles — the rendered NDJSON bytes of evaluateSwept equal those of the
// session evaluation it replaced, on both a cold tape and a warm replay.
func TestSweptMatchesSession(t *testing.T) {
	s := New(Config{})
	seed5 := int64(5)
	perRank := true
	cases := []struct {
		name string
		req  PredictRequest
	}{
		{"barrier_tree", PredictRequest{
			Profile:  ProfileSpec{Preset: "xeon-8x2x4"},
			Workload: WorkloadSpec{Kind: "barrier", Variant: "tree"},
			Procs:    16,
		}},
		{"allreduce_perrank", PredictRequest{
			Profile:  ProfileSpec{Preset: "xeon-8x2x4"},
			Workload: WorkloadSpec{Kind: "allreduce", Bytes: 256},
			Procs:    16,
			Options:  OptionsSpec{PerRank: perRank},
		}},
		{"broadcast_rooted_seeded", PredictRequest{
			Profile:  ProfileSpec{Preset: "flat-cluster"},
			Workload: WorkloadSpec{Kind: "broadcast", Root: 3, Bytes: 64},
			Procs:    16,
			Seed:     &seed5,
		}},
		{"totalexchange_faults", PredictRequest{
			Profile:  ProfileSpec{Preset: "xeon-8x2x4"},
			Workload: WorkloadSpec{Kind: "totalexchange", Bytes: 64},
			Procs:    16,
			Faults: &fault.Plan{Slowdowns: []fault.Slowdown{
				{Rank: 3, Factor: 2},
			}},
			Options: OptionsSpec{PerRank: perRank},
		}},
		{"barrier_dissemination", PredictRequest{
			Profile:  ProfileSpec{Preset: "xeon-8x2x4"},
			Workload: WorkloadSpec{Kind: "barrier", Variant: "dissemination"},
			Procs:    13,
		}},
		{"reduce_rooted", PredictRequest{
			Profile:  ProfileSpec{Preset: "xeon-8x2x4"},
			Workload: WorkloadSpec{Kind: "reduce", Root: 5, Bytes: 128},
			Procs:    12,
		}},
		{"allreduce_collapsed", PredictRequest{
			Profile:  ProfileSpec{Preset: "flat-cluster"},
			Workload: WorkloadSpec{Kind: "allreduce", Bytes: 64},
			Procs:    100,
		}},
		{"barrier_collapsed", PredictRequest{
			Profile:  ProfileSpec{Preset: "flat-cluster"},
			Workload: WorkloadSpec{Kind: "barrier"},
			Procs:    64,
		}},
		{"totalexchange_odd", PredictRequest{
			Profile:  ProfileSpec{Preset: "flat-cluster"},
			Workload: WorkloadSpec{Kind: "totalexchange", Bytes: 16},
			Procs:    7,
		}},
		{"allgather_scaled", PredictRequest{
			Profile:  ProfileSpec{Preset: "xeon-8x2x4"},
			Workload: WorkloadSpec{Kind: "allgather", Bytes: 32},
			Procs:    8,
			Sweep:    &SweepSpec{Scale: []ScaleSpec{{Latency: 2, Gap: 1.5}}},
		}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			if err := normalizeOptions(&req.Options); err != nil {
				t.Fatal(err)
			}
			pts, err := expandPoints(&req)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range pts {
				w := req.Workload
				if pt.bytes != 0 {
					w.Bytes = pt.bytes
				}
				if err := normalizeWorkload(&w, pt.procs); err != nil {
					t.Fatal(err)
				}
				rp, err := s.resolveProfile(&req.Profile, pt.scale, pt.procs)
				if err != nil {
					t.Fatal(err)
				}
				seed := int64(1)
				if req.Seed != nil {
					seed = *req.Seed
				}
				if !s.sweptEligible(&req, rp, &w) {
					t.Fatalf("point unexpectedly ineligible for the sweep path")
				}

				sres, perIter, rec, err := s.evaluateSession(ctx, &req, rp, &w, pt, seed, time.Time{})
				if err != nil {
					t.Fatalf("session evaluation: %v", err)
				}
				want, err := s.renderPoint(&req, rp, &w, pt, seed, sres, perIter, rec)
				if err != nil {
					t.Fatal(err)
				}

				// Cold (tape build) and warm (replay) swept evaluations must
				// both render to the session bytes.
				for _, pass := range []string{"cold", "warm"} {
					res, err := s.evaluateSwept(ctx, &req, rp, &w, pt, seed, time.Time{})
					if err != nil {
						t.Fatalf("%s swept evaluation: %v", pass, err)
					}
					got, err := s.renderPoint(&req, rp, &w, pt, seed, res, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s swept point diverged from the session evaluation\nswept:   %s\nsession: %s", pass, got, want)
					}
				}
			}
		})
	}
}

// TestBadFaultPlanSameOnBothPaths sends one invalid fault plan down the
// swept path (allreduce) and the session path (sync): the plan is checked
// before a path is chosen, so both error bodies are byte-identical and carry
// the session's "hbsp: " wrapping.
func TestBadFaultPlanSameOnBothPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const plan = `"faults":{"Slowdowns":[{"Rank":64,"Factor":2}]}`
	_, swept := predict(t, ts, `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"allreduce"},"procs":8,`+plan+`}`)
	resp, session := predict(t, ts, `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"sync"},"procs":8,`+plan+`}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, session)
	}
	want := `{"error":{"code":"invalid_fault","status":400,"message":"hbsp: invalid fault plan: slowdown 0: rank 64 out of range [0,8)"}}` + "\n"
	if string(session) != want {
		t.Errorf("session error body\n got %s\nwant %s", session, want)
	}
	if !bytes.Equal(swept, session) {
		t.Errorf("swept and session error bodies differ\n swept:   %s\n session: %s", swept, session)
	}
}

// TestSweptCollectivesAtLargeP is the regression test for the dense
// patterns the swept path once built: at P=65536 a flat-cluster allreduce
// allocated 32 GiB. Every swept collective now evaluates from a streamed
// schedule — collapsed on the circulant kinds — within a small, P-linear
// allocation budget.
func TestSweptCollectivesAtLargeP(t *testing.T) {
	s := New(Config{})
	const procs = 1 << 16
	for _, kind := range []string{"allreduce", "allgather", "broadcast", "reduce"} {
		body := fmt.Sprintf(`{"profile":{"preset":"flat-cluster"},"workload":{"kind":%q,"bytes":64},"procs":%d}`, kind, procs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", kind, rec.Code, rec.Body.Bytes())
		}
		var p PredictPoint
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if p.Procs != procs || p.MakeSpan <= 0 {
			t.Errorf("%s: procs %d, makespan %g", kind, p.Procs, p.MakeSpan)
		}
		if circulant := kind == "allreduce" || kind == "allgather"; circulant && !p.Collapse.Applied {
			t.Errorf("%s: collapse not applied (reason %q)", kind, p.Collapse.Reason)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown >= 64<<20 {
			t.Errorf("%s: allocated %d MiB, want < 64 MiB", kind, grown>>20)
		}
		if elapsed > 10*time.Second {
			t.Errorf("%s: took %v", kind, elapsed)
		}
		t.Logf("%s: %v, %.1f MiB allocated, collapse %+v", kind, elapsed, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), p.Collapse)
	}
}
