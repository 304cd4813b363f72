package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call. Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// setupOp is the op id of spans recorded during set-up.
const setupOp = -1

// tracer keeps spans in memory while recording is on; with recording off
// begin and end cost one branch. It is used by one goroutine; concurrent
// clients each own one and merge at the end.
type tracer struct {
	on    bool
	epoch time.Time
	op    int32
	spans []span
	open  []int32
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, op: setupOp, spans: make([]span, 0, 1<<12)}
}

// begin opens a span under the innermost open one and returns its id, or -1
// when recording is off.
func (t *tracer) begin(layer, name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: time.Since(t.epoch).Nanoseconds(), End: -1, Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its children cover. Children of one parent may overlap
// (concurrent callers), so the covered part is the length of their union.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(spans []span, ids []int32, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// durations returns the durations, in milliseconds, of the spans with the
// given name recorded inside timed ops.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Op != setupOp {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// setupDurations is durations for spans recorded during set-up.
func setupDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Op == setupOp {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerSelfPerOp returns each layer's self time summed over the spans of
// timed ops, divided by the number of traced ops, in milliseconds.
func layerSelfPerOp(spans []span, tracedOps int) map[string]float64 {
	out := map[string]float64{}
	if tracedOps == 0 {
		return out
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Op != setupOp {
			out[s.Layer] += float64(self[i]) / 1e6
		}
	}
	for k := range out {
		out[k] /= float64(tracedOps)
	}
	return out
}

// writeSpans dumps the spans as JSON for offline inspection.
func writeSpans(path string, host hostFacts, spans []span) error {
	data, err := json.Marshal(struct {
		Host  hostFacts `json:"host"`
		Spans []span    `json:"spans"`
	}{host, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
