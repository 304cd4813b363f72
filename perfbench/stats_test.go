package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"hbsp/sim"
)

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.9, 7},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.9, 3.7},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.9, 100},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Layer: "bench", Start: 0, End: 100, Parent: -1},
		{Name: "a", Layer: "sched", Start: 10, End: 30, Parent: 0},
		{Name: "b", Layer: "sched", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Layer: "trace", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "d", Layer: "trace", Start: 92, End: 95, Parent: 3},
	}
	// op: 100 − |[10,50] ∪ [90,100]| = 100 − 50
	want := []int64{50, 20, 30, 27, 3}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	for i := range spans {
		spans[i].Op = 1
	}
	per := layerSelfPerOp(spans, 2)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-15 }
	if !near(per["bench"], 25e-6) || !near(per["sched"], 25e-6) || !near(per["trace"], 15e-6) {
		t.Errorf("layer self time per op = %v", per)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(processStart)
	if id := tr.begin("bench", "off"); id != -1 || len(tr.spans) != 0 {
		t.Fatalf("a tracer that is off recorded span %d", id)
	}
	tr.on, tr.op = true, 4
	op := tr.begin("bench", "op")
	a := tr.begin("sched", "a")
	tr.end(a)
	b := tr.begin("trace", "b")
	tr.end(b)
	tr.end(op)
	if len(tr.spans) != 3 || tr.spans[a].Parent != op || tr.spans[b].Parent != op || tr.spans[op].Parent != -1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Op != 4 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
}

// TestDigestStable pins the digest encoding: a change to it changes the
// default-seed digests NOTES.md records.
func TestDigestStable(t *testing.T) {
	res := &sim.Result{Times: []float64{1.5, 2.25}, MakeSpan: 2.25, Messages: 6, Bytes: 48,
		Collapse: sim.Collapse{Reason: sim.CollapseReasonHetero}}
	d := newDigest()
	d.result(res)
	if got, want := d.hex(), "a98311e764f989ce"; got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
	e := newDigest()
	e.result(cloneResult(res))
	if e.hex() != d.hex() {
		t.Error("a copied result digests differently")
	}
	res.Times[0] = math.Nextafter(1.5, 2)
	f := newDigest()
	f.result(res)
	if f.hex() == d.hex() {
		t.Error("the digest ignores a one-ulp change of a per-rank time")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics declared, %d reported", len(b.EndToEnd), len(endToEnd))
	}
	for i := range min(len(b.EndToEnd), len(endToEnd)) {
		if b.EndToEnd[i].Name != endToEnd[i].name || b.EndToEnd[i].Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: declared %s %s, reported %s %s", i, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics declared, %d reported", len(b.PerLayer), len(perLayer))
	}
	for i := range min(len(b.PerLayer), len(perLayer)) {
		if b.PerLayer[i].Name != perLayer[i].name || b.PerLayer[i].Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: declared %s %s, reported %s %s", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
