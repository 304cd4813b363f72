package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hbsp"
	"hbsp/collective"
	"hbsp/sched"
	"hbsp/sim"
)

// The incremental sweep path: schedule-expressible collective points under
// the default engine skip the session machinery entirely and run on a pooled
// sched.SweepEvaluator. Evaluators are keyed by the profile's *base*
// fingerprint (before any LogGP scaling) plus everything an evaluator fixes
// at construction — rank count, ack mode, collapse mode, fault plan — so all
// points of one NDJSON sweep ride the same evaluator, and so do coalesced
// single-point misses against the same profile arriving across requests.
// Results are bit-identical to the session path (the sweep evaluator's
// contract), so the rendered bytes an entry produces are indistinguishable
// from the legacy evaluation they replace.

// sweepPoolEntries bounds the evaluator pool. Entries hold an evaluator
// arena plus memoized term tapes (bounded by the evaluator's own memo
// budget); evicted entries are left to the garbage collector — another
// goroutine may still be evaluating on one, so they are never released
// eagerly.
const sweepPoolEntries = 64

// sweepEntry is one pooled evaluator. The mutex serializes points — a
// SweepEvaluator is single-threaded by design, and so is the StageAt scratch
// of every streamed schedule in streams — and last holds the stats snapshot
// of the previous point, so per-point deltas feed the /metrics reuse
// counters.
type sweepEntry struct {
	mu      sync.Mutex
	sw      *sched.SweepEvaluator
	last    sched.SweepStats
	streams map[streamKey]sched.Schedule
}

// streamKey names one streamed schedule of an entry. The entry fixes P, so
// kind, variant, root and bytes determine the stages; keeping the stream
// across points also keeps the evaluator's tape key for it stable.
type streamKey struct {
	kind, variant string
	root, bytes   int
}

// maxEntryStreams and maxEntryStreamRanks bound an entry's stream cache, by
// count and by total rank count; beyond either the cache is reset. A stream
// holds O(stages) state, plus O(P) StageAt scratch once a per-rank
// evaluation or a verification has walked it.
const (
	maxEntryStreams     = 32
	maxEntryStreamRanks = 1 << 20
)

// sweptEligible reports whether a point can run on the sweep-evaluator path:
// a schedule-expressible collective on a profile-backed machine under the
// default engine, untraced (tracing forces per-rank lanes and the session's
// recorder plumbing).
func (s *Server) sweptEligible(req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec) bool {
	if req.Options.Engine != "auto" || req.Options.Trace {
		return false
	}
	if rp.cluster == nil {
		return false
	}
	switch w.Kind {
	case "barrier", "broadcast", "reduce", "allreduce", "allgather", "totalexchange":
		return true
	}
	return false
}

// sweepKey canonicalizes everything a pooled evaluator fixes at
// construction. The run seed is absent deliberately: evaluators re-price
// seed changes point by point.
func sweepKey(rp *resolvedProfile, procs int, req *PredictRequest) string {
	ack := true
	if req.Options.AckSends != nil {
		ack = *req.Options.AckSends
	}
	return fmt.Sprintf("sweep/%s/p%d/ack%t/%s/%s",
		rp.baseFingerprint, procs, ack, req.Options.Collapse, req.Faults.Fingerprint())
}

// sweepEvaluator fetches (or builds) the pooled evaluator of a key. The
// admission mutex makes get-or-create atomic, so concurrent misses on one
// key share a single evaluator instead of building duplicates.
func (s *Server) sweepEvaluator(key string, req *PredictRequest, rp *resolvedProfile, seed int64) (*sweepEntry, error) {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if cached, ok := s.sweeps.Get(key); ok {
		return cached.(*sweepEntry), nil
	}
	opt := sched.SweepOptions{
		// The gate-inline collective paths this replaces bill nothing on
		// stages where a rank has no edges.
		ComputeEmpty: false,
	}
	if req.Options.AckSends != nil {
		opt.AckSends = *req.Options.AckSends
	} else {
		opt.AckSends = true
	}
	if req.Options.Collapse == "off" {
		opt.SymmetryCollapse = sim.CollapseOff
	}
	if req.Faults != nil && !req.Faults.Empty() {
		opt.Faults = req.Faults
	}
	sw, err := sched.NewSweepEvaluator(rp.cluster.WithRunSeed(seed), opt)
	if err != nil {
		return nil, err
	}
	ent := &sweepEntry{sw: sw}
	s.sweeps.Put(key, ent)
	return ent, nil
}

// evaluateSwept runs one eligible point on its pooled evaluator and returns
// the run result, bit-identical to the session evaluation of the same point.
func (s *Server) evaluateSwept(ctx context.Context, req *PredictRequest, rp *resolvedProfile, w *WorkloadSpec, pt point, seed int64, deadline time.Time) (*sim.Result, error) {
	ent, err := s.sweepEvaluator(sweepKey(rp, pt.procs, req), req, rp, seed)
	if err != nil {
		return nil, err
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()

	sch, err := s.sweptSchedule(ent, w, pt.procs)
	if err != nil {
		return nil, err
	}
	if deadline.IsZero() {
		ent.sw.SetDeadline(0)
	} else {
		left := time.Until(deadline)
		if left <= 0 {
			return nil, fmt.Errorf("%w: request budget exhausted before evaluation", hbsp.ErrDeadline)
		}
		ent.sw.SetDeadline(left)
	}

	res, err := ent.sw.Run(ctx, rp.cluster.WithRunSeed(seed), sch, 1)
	st := ent.sw.Stats()
	s.m.sweepPointsReused.Add((st.PointsReused + st.TapesReused) - (ent.last.PointsReused + ent.last.TapesReused))
	s.m.partitionsReused.Add(st.PartitionsReused - ent.last.PartitionsReused)
	ent.last = st
	return res, err
}

// sweptSchedule returns a point's schedule: the cached signal-only pattern
// of the tree and linear barriers, otherwise the entry's streamed generator
// — O(stages) state where the session path builds P×P stage matrices. The
// caller holds ent.mu.
func (s *Server) sweptSchedule(ent *sweepEntry, w *WorkloadSpec, procs int) (sched.Schedule, error) {
	if w.Kind == "barrier" && w.Variant != "dissemination" {
		pat, err := s.barrierPattern(w.Variant, procs)
		if err != nil {
			return nil, err
		}
		return pat.ScheduleView(), nil
	}
	key := streamKey{kind: w.Kind, variant: w.Variant, root: w.Root, bytes: w.Bytes}
	if sch, ok := ent.streams[key]; ok {
		return sch, nil
	}
	var (
		sch  sched.Schedule
		sem  collective.Semantics
		root int
		err  error
	)
	switch w.Kind {
	case "barrier":
		sem = collective.SemBarrier
		sch, err = collective.StreamDissemination(procs)
	case "broadcast":
		sem, root = collective.SemBroadcast, w.Root
		sch, err = collective.StreamBroadcast(procs, root, w.Bytes)
	case "reduce":
		sem, root = collective.SemReduce, w.Root
		sch, err = collective.StreamReduce(procs, root, w.Bytes)
	case "allreduce":
		sem = collective.SemAllReduce
		sch, err = collective.StreamAllReduce(procs, w.Bytes)
	case "allgather":
		sem = collective.SemAllGather
		sch, err = collective.StreamAllGather(procs, w.Bytes)
	case "totalexchange":
		sem = collective.SemTotalExchange
		sch, err = collective.StreamTotalExchange(procs, w.Bytes)
	default:
		return nil, fmt.Errorf("server: no streamed schedule for %q", w.Kind)
	}
	if err != nil {
		return nil, badRequestf("%s with P=%d: %v", w.Kind, procs, err)
	}
	if err := s.verifyStream(sch, sem, procs, root); err != nil {
		return nil, err
	}
	if ent.streams == nil || len(ent.streams) >= max(1, min(maxEntryStreams, maxEntryStreamRanks/procs)) {
		ent.streams = make(map[streamKey]sched.Schedule)
	}
	ent.streams[key] = sch
	return sch, nil
}

// verifyStream checks a streamed generator once per (semantics, P, root):
// verification reads stage structure only, which payload sizes do not
// change, so later sizes and other entries skip it.
func (s *Server) verifyStream(sch sched.Schedule, sem collective.Semantics, procs, root int) error {
	key := fmt.Sprintf("verified/%s/p%d/r%d", sem, procs, root)
	if _, ok := s.verified.Get(key); ok {
		return nil
	}
	if err := collective.VerifySchedule(sch, sem, root); err != nil {
		return fmt.Errorf("server: %s P=%d failed verification: %v", sem, procs, err)
	}
	s.verified.Put(key, true)
	return nil
}
