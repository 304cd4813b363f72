// Package sched is the goroutine-free discrete-event evaluator of the
// simulator: it computes the virtual times of schedule-expressible workloads
// — verified collective patterns, superstep count exchanges, and arbitrary
// straight-line per-rank op-streams (simnet.Program) — by evaluating the
// LogGP recurrence directly, with no goroutines, mailboxes or channel
// wake-ups. Virtual times, traffic counters and recorded trace events are
// bit-identical to the concurrent engine's: the evaluator replays exactly the
// operations the concurrent walkers perform, in each rank's program order,
// consuming the per-rank Noise(rank, seq) stream in exactly the order the
// concurrent engine consumes it.
//
// Two evaluation modes exist:
//
//   - Whole-run evaluation (RunSchedule, RunProgram): the entire workload is
//     evaluated on the calling goroutine. This is what cmd/simbench's *_de
//     entries measure and what unlocks P=4096, where the concurrent engine's
//     per-message costs are prohibitive.
//
//   - Inline evaluation (Evaluator.ImportProcs / ExecSchedule / ExportProcs):
//     inside a concurrent run, all ranks rendezvous at the run's simnet.Gate,
//     and the last arriver evaluates the collective sequentially against the
//     live per-rank clocks and port states, then resumes everyone. This is
//     how barrier.Execute, the BSP count exchange and the mpi schedule flood
//     route through the evaluator while arbitrary closures around them still
//     run on the concurrent engine.
//
// The arithmetic in this file mirrors simnet.sendCore, simnet.resolveRecv,
// simnet.Wait and simnet.Compute operation for operation; change them
// together (the cross-engine diff tests pin the agreement). Like sendCore,
// every edge is priced exactly once — by one Machine.Pair call in send, or
// from one tape term in the sweep evaluator's execSwept — and the gap the
// receive completion needs travels with the message through the
// per-receiver queue.
package sched

import (
	"sync"

	"hbsp/internal/fault"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// Stage is the sparse adjacency of one schedule stage: Out[i] lists the ranks
// i signals, In[j] the ranks signalling j, and OutBytes[i][k] the payload
// size of the edge i→Out[i][k] (nil OutBytes means pure signals).
//
// Ordering contract: In[j] must enumerate sources in the order the edges are
// produced by scanning Out row-major (i ascending, then position in Out[i]).
// Adjacency built by scanning a stage matrix row by row — as
// barrier.Pattern.Adjacency does — satisfies this by construction.
type Stage struct {
	Out      [][]int
	In       [][]int
	OutBytes [][]int
}

// Schedule is the stage-graph view the evaluator executes. Implementations
// may build StageAt's result on the fly and reuse its storage across calls
// (the evaluator walks stages strictly in order, one at a time), which is
// what keeps P=4096 sweeps inside memory budgets. Such a schedule value must
// therefore not be evaluated by two evaluations concurrently: parallel
// workers each build their own (Circulant is one of them).
type Schedule interface {
	// NumProcs returns the number of participating ranks.
	NumProcs() int
	// NumStages returns the number of stages.
	NumStages() int
	// StageAt returns stage s. The evaluator does not retain the value
	// across calls.
	StageAt(s int) Stage
}

// StaticStages wraps a materialized stage slice as a Schedule.
type StaticStages struct {
	Procs  int
	Stages []Stage
	// Sym optionally declares the stage graph's rank symmetry (the
	// symmetry-collapse eligibility hint; see Symmetry). Only set it for
	// stage graphs that actually have the declared shape.
	Sym Symmetry
}

// NumProcs returns the number of participating ranks.
func (s *StaticStages) NumProcs() int { return s.Procs }

// NumStages returns the number of stages.
func (s *StaticStages) NumStages() int { return len(s.Stages) }

// StageAt returns stage i.
func (s *StaticStages) StageAt(i int) Stage { return s.Stages[i] }

// Symmetry returns the declared rank symmetry.
func (s *StaticStages) Symmetry() Symmetry { return s.Sym }

// rankState is one rank's LogGP evolution state: its clock, the free times of
// its injection and extraction ports, its position in the machine's noise
// stream, and — on traced runs — its trace lane and superstep label.
type rankState struct {
	now      float64
	txFree   float64
	rxFree   float64
	noiseSeq uint64
	lane     *trace.Lane
	step     int32
	stage    int32
}

// Evaluator evaluates schedules against a set of per-rank LogGP states. Its
// instruction arrays and per-stage scratch are reused across executions, so
// steady-state evaluation allocates nothing. An Evaluator is not safe for
// concurrent use; inline callers park one in their run's Gate.Scratch.
type Evaluator struct {
	m   simnet.Machine
	ack bool

	// collapseOff disables symmetry-collapsed evaluation for this evaluator
	// (the runtime wires it from Options.SymmetryCollapse).
	collapseOff bool

	// ft is the compiled fault plan of the run, nil when fault-free — the
	// mirror of Proc.ft, wired from Options.Faults (whole-run evaluation) or
	// Proc.Faults (gate rendezvous).
	ft *fault.Runtime

	// lastCollapse is the diagnostic of the most recent collapse decision
	// (ExecScheduleAuto); runs surface it as Result.Collapse.
	lastCollapse simnet.Collapse

	states []rankState

	// Per-stage scratch, reset between stages: entry clocks (the post time
	// of a rank's receives), per-receiver message queues (filled in sender
	// order, consumed positionally against Stage.In), and per-sender
	// send-completion times.
	entry        []float64
	in           [][]inMsg
	sendComplete [][]float64

	// Collapsed-evaluation scratch: per class, the messages of the
	// representative's sends by out-edge position; and the cached
	// rank-equivalence partitions of schedules evaluated inline (a nil
	// partition = ineligible, cached with its reason so the refinement never
	// reruns).
	classMsg  [][]inMsg
	partCache map[Schedule]partEntry

	messages int64
	bytes    int64
}

// evalPool recycles evaluators (and with them every per-rank state and
// scratch slice) across runs and sweep points: steady-state RunSchedule and
// gate evaluations reallocate nothing but the result.
var evalPool sync.Pool

// NewEvaluator returns an evaluator for the given machine and ack mode with
// all rank states zeroed. Evaluators come from a shared pool; Release
// returns one when the caller is done.
func NewEvaluator(m simnet.Machine, ack bool) *Evaluator {
	p := m.Procs()
	e, _ := evalPool.Get().(*Evaluator)
	if e == nil {
		e = &Evaluator{}
	}
	e.m, e.ack = m, ack
	e.collapseOff = false
	e.ft = nil
	e.lastCollapse = simnet.Collapse{}
	e.messages, e.bytes = 0, 0
	e.partCache = nil
	if cap(e.states) < p {
		e.states = make([]rankState, p)
		e.entry = make([]float64, p)
		e.in = make([][]inMsg, p)
		e.sendComplete = make([][]float64, p)
	} else {
		e.states = e.states[:p]
		for i := range e.states {
			e.states[i] = rankState{}
		}
		e.entry = e.entry[:p]
		e.in = e.in[:p]
		e.sendComplete = e.sendComplete[:p]
	}
	return e
}

// Release returns the evaluator to the shared pool. The caller must not use
// it afterwards; lane attachments and cached partitions are dropped.
func (e *Evaluator) Release() {
	for i := range e.states {
		e.states[i] = rankState{}
	}
	e.m = nil
	e.ft = nil
	e.partCache = nil
	evalPool.Put(e)
}

// CollapseInfo returns the diagnostic of the evaluator's most recent
// symmetry-collapse decision; simnet.RunContext reads it off the gate-parked
// evaluator into Result.Collapse.
func (e *Evaluator) CollapseInfo() simnet.Collapse { return e.lastCollapse }

// Procs returns the evaluator's rank count.
func (e *Evaluator) Procs() int { return len(e.states) }

// Traffic returns and resets the delivered message and byte counts
// accumulated since the last call.
func (e *Evaluator) Traffic() (messages, bytes int64) {
	messages, bytes = e.messages, e.bytes
	e.messages, e.bytes = 0, 0
	return messages, bytes
}

// Times copies the per-rank clocks into dst (allocating when nil) and
// returns it.
func (e *Evaluator) Times(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(e.states))
	}
	for i := range e.states {
		dst[i] = e.states[i].now
	}
	return dst
}

// AttachLane points rank's events at a trace lane (nil detaches) and labels
// them with the given superstep.
func (e *Evaluator) AttachLane(rank int, lane *trace.Lane, step int32) {
	e.states[rank].lane = lane
	e.states[rank].step = step
}

// ImportProcs loads the live LogGP state (and trace lane position) of every
// rank of a concurrent run. Only a gate leader may call it (see simnet.Gate
// for the synchronization contract).
func (e *Evaluator) ImportProcs(procs []*simnet.Proc) {
	for i, p := range procs {
		st := &e.states[i]
		st.now, st.txFree, st.rxFree, st.noiseSeq = p.EvalState()
		st.lane, st.step = p.EvalTrace()
	}
}

// ExportProcs stores the advanced LogGP states back into the live ranks and
// credits the accumulated traffic to the run's counters.
func (e *Evaluator) ExportProcs(procs []*simnet.Proc) {
	for i, p := range procs {
		st := &e.states[i]
		p.SetEvalState(st.now, st.txFree, st.rxFree, st.noiseSeq)
	}
	msgs, bytes := e.Traffic()
	if msgs != 0 || bytes != 0 {
		procs[0].AddTraffic(msgs, bytes)
	}
}

// EvaluatorAt returns the evaluator parked in the gate's scratch slot,
// creating it on first use. Only the gate leader may call it.
func EvaluatorAt(g *simnet.Gate, p *simnet.Proc) *Evaluator {
	if ev, ok := g.Scratch.(*Evaluator); ok {
		return ev
	}
	ev := NewEvaluator(p.MachineOf(), p.AckSends())
	ev.collapseOff = p.CollapseMode() == simnet.CollapseOff
	ev.ft = p.Faults()
	g.Scratch = ev
	return ev
}

// noise draws the next jitter factor for the rank, mirroring Proc.noise
// (including the fault-plan slowdown multiplier).
func (st *rankState) noise(m simnet.Machine, ft *fault.Runtime, rank int) float64 {
	f := m.Noise(rank, st.noiseSeq)
	if ft != nil {
		f *= ft.Slow(rank, st.noiseSeq, st.now)
	}
	st.noiseSeq++
	return f
}

// setNow mirrors Proc.setNow: move the clock to t, paying the fail-stop
// crossing penalty (and recording the KindFault interval) when the advance
// crosses the rank's fail time.
func (st *rankState) setNow(ft *fault.Runtime, rank int, t float64) {
	if ft != nil {
		if adj, pen := ft.Cross(rank, st.now, t); pen > 0 {
			if st.lane != nil {
				st.lane.Append(trace.Event{Kind: trace.KindFault, Peer: -1, SendSeq: -1,
					Step: st.step, Stage: st.stage, T0: t, T1: adj})
			}
			st.now = adj
			return
		}
	}
	st.now = t
}

// compute mirrors Proc.Compute: advance the clock by noisy work, recording a
// compute interval on traced runs.
func (st *rankState) compute(m simnet.Machine, ft *fault.Runtime, rank int, seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	d := seconds * st.noise(m, ft, rank)
	if st.lane != nil && d > 0 {
		st.lane.Append(trace.Event{Kind: trace.KindCompute, Peer: -1, SendSeq: -1,
			Step: st.step, Stage: st.stage, T0: st.now, T1: st.now + d})
	}
	st.setNow(ft, rank, st.now+d)
}

// computeExact mirrors Proc.ComputeExact.
func (st *rankState) computeExact(ft *fault.Runtime, rank int, seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	if st.lane != nil && seconds > 0 {
		st.lane.Append(trace.Event{Kind: trace.KindCompute, Peer: -1, SendSeq: -1,
			Step: st.step, Stage: st.stage, T0: st.now, T1: st.now + seconds})
	}
	st.setNow(ft, rank, st.now+seconds)
}

// inMsg is one message on its way to a receiver: what the sender's single
// pricing of the pair produced that the receive completion and its trace
// event consume — the arrival, the pair's gap (the receiver's extraction
// port occupancy) and whether the pair crosses NICs, the payload size and,
// on traced runs, the sender's event index (-1 untraced) and injection end
// time, exactly as the concurrent engine's message carries them.
type inMsg struct {
	arrival  float64
	gap      float64
	sendEnd  float64
	size     int32
	sendEv   int32
	crossNIC bool
}

// send mirrors Proc.sendCore: price the pair once and pay the sender-side
// costs of one eager send, returning the message bound for dst and the
// virtual time the send request completes. On traced runs it appends the
// KindSend event; its lane index and the injection end time (the event's
// T1) ride with the message to the receiver's wait event.
func (e *Evaluator) send(st *rankState, rank, dst, tag, size int) (msg inMsg, completeAt float64) {
	m := e.m
	lat, gap, beta, ovh, ret := m.Pair(rank, dst)
	t0 := st.now
	latMul, betaMul := 1.0, 1.0
	if e.ft != nil && e.ft.HasLinks() {
		latMul, betaMul = e.ft.Link(rank, dst, t0)
	}
	st.setNow(e.ft, rank, st.now+ovh*st.noise(m, e.ft, rank))

	sameNIC := m.NIC(rank) == m.NIC(dst)
	transfer := float64(size) * beta * betaMul
	var txStart float64
	if sameNIC && rank != dst {
		txStart = st.now
	} else {
		txStart = st.now
		if st.txFree > txStart {
			txStart = st.txFree
		}
		st.txFree = txStart + gap + transfer
	}
	arrival := txStart + (lat*latMul+transfer)*st.noise(m, e.ft, rank)

	msg = inMsg{arrival: arrival, gap: gap, size: int32(size), sendEv: -1, crossNIC: !sameNIC}
	if st.lane != nil {
		msg.sendEv = int32(st.lane.Len())
		msg.sendEnd = st.now
		st.lane.Append(trace.Event{Kind: trace.KindSend, Peer: int32(dst), Tag: int32(tag),
			Size: int32(size), SendSeq: -1, Step: st.step, Stage: st.stage,
			T0: t0, T1: st.now, Arrival: arrival})
	}
	e.messages++
	e.bytes += int64(size)

	completeAt = st.txFree
	if rank == dst || sameNIC {
		completeAt = arrival
	}
	if e.ack && rank != dst {
		completeAt = arrival + ret*latMul
	}
	return msg, completeAt
}

// recvComplete mirrors Request.resolveRecv: given the receive's post time and
// the matched message, compute the completion time, serializing the
// extraction port by the gap the sender priced.
func (st *rankState) recvComplete(postTime float64, msg *inMsg) (completeAt float64, gated bool) {
	start := postTime
	if msg.arrival > start {
		start = msg.arrival
		gated = true
	}
	if msg.crossNIC {
		if st.rxFree > start {
			start = st.rxFree
			gated = false
		}
		st.rxFree = start + msg.gap
	}
	return start, gated
}

// waitRecvAdvance mirrors Proc.Wait for a resolved receive: advance the clock
// to the completion time, recording the wait interval on traced runs.
func (st *rankState) waitRecvAdvance(ft *fault.Runtime, rank int, completeAt float64, src, tag int, msg *inMsg, gated bool) {
	if completeAt > st.now {
		if st.lane != nil {
			st.lane.Append(trace.Event{Kind: trace.KindRecvWait, Gated: gated,
				Peer: int32(src), Tag: int32(tag), Size: msg.size, SendSeq: msg.sendEv,
				Step: st.step, Stage: st.stage, T0: st.now, T1: completeAt,
				Arrival: msg.arrival, SendEnd: msg.sendEnd})
		}
		st.setNow(ft, rank, completeAt)
	}
}

// waitSendAdvance mirrors Proc.Wait for a send request.
func (st *rankState) waitSendAdvance(ft *fault.Runtime, rank int, completeAt float64, dst, tag, size int) {
	if completeAt > st.now {
		if st.lane != nil {
			st.lane.Append(trace.Event{Kind: trace.KindSendWait,
				Peer: int32(dst), Tag: int32(tag), Size: int32(size), SendSeq: -1,
				Step: st.step, Stage: st.stage, T0: st.now, T1: completeAt})
		}
		st.setNow(ft, rank, completeAt)
	}
}

// stageMark mirrors Proc.TraceStage: record the mark (for a non-negative
// stage) and label subsequent events with it.
func (st *rankState) stageMark(stage int32) {
	if st.lane == nil {
		return
	}
	if stage >= 0 {
		st.lane.Append(trace.Event{Kind: trace.KindStage, Peer: -1, SendSeq: -1,
			Step: st.step, Stage: stage, T0: st.now, T1: st.now})
	}
	st.stage = stage
}

// ExecSchedule evaluates one execution of the schedule: per stage, every rank
// posts its receives, injects its sends and then waits — receives first, then
// sends, in edge order — exactly as the concurrent stage walkers
// (barrier.Execute, the mpi flood, both count exchanges) do. Stage s's
// messages carry tag tagBase+s in recorded events. computeEmpty selects
// barrier.Execute's convention of paying an empty Startall/Waitall
// (Compute(0), one noise draw) on stages where a rank has no edges; the flood
// and count-exchange walkers skip such stages outright.
//
// The two-phase sweep per stage is the conservative-PDES evaluation order:
// within a stage every arrival depends only on pre-stage sender state, and
// every completion only on the receiver's own state plus arrivals, so all
// sends of a stage can be evaluated before all waits without changing any
// virtual time the concurrent engine would produce.
func (e *Evaluator) ExecSchedule(s Schedule, tagBase int, computeEmpty bool) {
	e.execSchedule(s, tagBase, computeEmpty, nil)
}

// execSchedule is ExecSchedule with an optional per-stage cancellation
// checker (see stageChecker).
func (e *Evaluator) execSchedule(s Schedule, tagBase int, computeEmpty bool, chk *stageChecker) error {
	p := len(e.states)
	for sg := 0; sg < s.NumStages(); sg++ {
		if chk != nil {
			if err := chk.tick(); err != nil {
				return err
			}
		}
		st := s.StageAt(sg)
		stage := int32(sg)
		tag := tagBase + sg

		// Phase A: stage marks, receive post times, send injections.
		for r := 0; r < p; r++ {
			rs := &e.states[r]
			rs.stageMark(stage)
			ins, outs := st.In[r], st.Out[r]
			if len(ins) == 0 && len(outs) == 0 {
				if computeEmpty {
					rs.compute(e.m, e.ft, r, 0)
				}
				continue
			}
			e.entry[r] = rs.now
			if len(outs) > 0 {
				sc := e.sendComplete[r][:0]
				for k, dst := range outs {
					size := 0
					if st.OutBytes != nil {
						size = st.OutBytes[r][k]
					}
					msg, completeAt := e.send(rs, r, dst, tag, size)
					sc = append(sc, completeAt)
					e.in[dst] = append(e.in[dst], msg)
				}
				e.sendComplete[r] = sc
			}
		}

		// Phase B: waits, receives first, then sends, in edge order.
		for r := 0; r < p; r++ {
			rs := &e.states[r]
			ins, outs := st.In[r], st.Out[r]
			for q, src := range ins {
				msg := &e.in[r][q]
				completeAt, gated := rs.recvComplete(e.entry[r], msg)
				rs.waitRecvAdvance(e.ft, r, completeAt, src, tag, msg, gated)
			}
			for k, dst := range outs {
				size := 0
				if st.OutBytes != nil {
					size = st.OutBytes[r][k]
				}
				rs.waitSendAdvance(e.ft, r, e.sendComplete[r][k], dst, tag, size)
			}
			e.in[r] = e.in[r][:0]
		}
	}
	return nil
}

// superstepMark mirrors Proc.TraceSuperstep: record the boundary of the
// completed superstep and label subsequent events with the next one.
func (st *rankState) superstepMark(step int32) {
	if st.lane == nil {
		return
	}
	st.lane.Append(trace.Event{Kind: trace.KindSuperstep, Peer: -1, SendSeq: -1,
		Step: step, Stage: st.stage, T0: st.now, T1: st.now})
	st.step = step + 1
}
