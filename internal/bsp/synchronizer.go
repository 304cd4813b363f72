package bsp

import (
	"errors"
	"fmt"
	"sync"

	"hbsp/internal/adapt"
	"hbsp/internal/barrier"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// Synchronizer drives the total exchange of per-pair message counts that ends
// a superstep (Section 6.4). The default is the hand-rolled dissemination
// exchange; NewScheduleSynchronizer executes any verified collective schedule
// instead, which is how model-selected hybrid patterns from internal/adapt
// reach the runtime.
type Synchronizer interface {
	// Name identifies the synchronizer for reporting.
	Name() string
	// ExchangeCounts returns the full P×P one-sided message-count map,
	// indexed [source][destination], as established on the calling process.
	ExchangeCounts(c *Ctx) ([][]int, error)
}

// directExchanger is the optional capability a synchronizer implements to
// route its count exchange through the goroutine-free discrete-event
// evaluator: the returned schedule is the exchange's exact op-stream — the
// same stage walk the synchronizer's ExchangeCounts performs concurrently,
// with every payload size resolved up front (the count-row snapshot a rank
// sends at stage s is knowledge-determined, never data-determined). Sync
// evaluates it at the run's gate; synchronizers without the capability (or
// runs under WithConcurrentEngine) keep the concurrent walk.
type directExchanger interface {
	exchangeSchedule(p int) (sched.Schedule, error)
}

// disseminationSync is the default synchronizer: the ⌈log2 P⌉-stage
// dissemination exchange with doubling payloads of Section 6.5. The evaluator
// schedule of each process count is cached on the synchronizer, so repeated
// runs share one immutable stage structure.
type disseminationSync struct {
	mu  sync.Mutex
	byP map[int]sched.Schedule
}

func (*disseminationSync) Name() string                           { return "dissemination" }
func (*disseminationSync) ExchangeCounts(c *Ctx) ([][]int, error) { return c.exchangeCounts() }

// staticExchangeLimit bounds the rank counts whose exchange schedule is
// materialized (and cached) as immutable StaticStages — shareable across
// concurrent runs and stable under the evaluator's partition cache. Above it
// the exchange is handed out as a fresh streaming Circulant per call: O(1)
// state per stage, which is what keeps the P=1M count exchange in memory.
const staticExchangeLimit = 1 << 12

// exchangeOffsetsSizes returns the dissemination exchange's stage offsets
// (2^s) and payload sizes (header plus the min(2^s, p) count rows the sender
// holds entering the stage).
func exchangeOffsetsSizes(p int) (offs, sizes []int) {
	known := 1 // rows held entering the stage: min(2^s, p)
	for dist := 1; dist < p; dist *= 2 {
		offs = append(offs, dist)
		sizes = append(sizes, headerBytes+known*p*countEntryBytes)
		if known *= 2; known > p {
			known = p
		}
	}
	return offs, sizes
}

func (d *disseminationSync) exchangeSchedule(p int) (sched.Schedule, error) {
	if p > staticExchangeLimit {
		offs, sizes := exchangeOffsetsSizes(p)
		return sched.NewCirculant(p, offs, sizes)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.byP[p]; ok {
		return s, nil
	}
	var stages []sched.Stage
	offs, sizes := exchangeOffsetsSizes(p)
	for k, dist := range offs {
		st := sched.Stage{Out: make([][]int, p), In: make([][]int, p), OutBytes: make([][]int, p)}
		for i := 0; i < p; i++ {
			st.Out[i] = []int{(i + dist) % p}
			st.In[i] = []int{(i - dist + p) % p}
			st.OutBytes[i] = []int{sizes[k]}
		}
		stages = append(stages, st)
	}
	s := &sched.StaticStages{Procs: p, Stages: stages, Sym: sched.SymCirculant}
	if d.byP == nil {
		d.byP = map[int]sched.Schedule{}
	}
	d.byP[p] = s
	return s, nil
}

// ExchangeSchedule returns the default dissemination count-exchange schedule
// for p ranks — the exact op-stream Sync evaluates per superstep, with every
// payload size resolved up front. Exported so direct RunSchedule sweeps (and
// cmd/simbench's large-P symmetry entries) can evaluate the superstep count
// exchange without spawning a concurrent run.
func ExchangeSchedule(p int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("bsp: count exchange with p=%d", p)
	}
	return defaultSync.exchangeSchedule(p)
}

// defaultSync is the shared default synchronizer instance; sharing it lets
// every run reuse the cached exchange schedules.
var defaultSync = &disseminationSync{}

// DefaultSynchronizer returns the dissemination synchronizer the runtime uses
// when none is configured.
func DefaultSynchronizer() Synchronizer { return defaultSync }

// scheduleSync executes an arbitrary verified schedule: at every stage each
// process receives from its in-edges and forwards everything it knows along
// its out-edges, so after the last stage the count map is complete on every
// process whenever the schedule passes the all-pairs knowledge recursion.
// It speaks the same wire protocol as Ctx.exchangeCounts in sync.go
// (tagCountBase+stage tags, []countRow payloads, headerBytes+rows*P*4
// sizing) — change them together.
type scheduleSync struct {
	pat *barrier.Pattern

	// once builds the evaluator schedule of the exchange: the pattern's
	// adjacency with every out-edge sized at the count-row snapshot the
	// sender holds entering the stage (the knowledge recursion's
	// KnownBeforeStage counts).
	once  sync.Once
	sched sched.Schedule
}

// NewScheduleSynchronizer wraps a collective schedule as a count-exchange
// synchronizer. The pattern must pass the all-pairs knowledge recursion
// (barrier/allgather-style semantics): rooted broadcast or reduce schedules
// cannot deliver the full count map and are rejected.
func NewScheduleSynchronizer(pat *barrier.Pattern) (Synchronizer, error) {
	if pat == nil {
		return nil, errors.New("bsp: nil schedule")
	}
	switch pat.Semantics {
	case barrier.SemBroadcast, barrier.SemReduce:
		return nil, fmt.Errorf("bsp: %s schedule cannot implement the count total exchange", pat.Semantics)
	}
	if err := pat.Verify(); err != nil {
		return nil, fmt.Errorf("bsp: schedule rejected: %w", err)
	}
	// Warm the lazy adjacency cache now, while the pattern is still owned by
	// a single goroutine: ExchangeCounts reads it concurrently from every
	// simulated process.
	pat.Adjacency()
	return &scheduleSync{pat: pat}, nil
}

func (s *scheduleSync) Name() string { return s.pat.Name }

func (s *scheduleSync) exchangeSchedule(p int) (sched.Schedule, error) {
	if s.pat.Procs != p {
		return nil, fmt.Errorf("bsp: schedule for %d processes on a %d-process run", s.pat.Procs, p)
	}
	s.once.Do(func() {
		adj := s.pat.Adjacency()
		known := s.pat.KnownBeforeStage()
		stages := make([]sched.Stage, len(adj))
		for sg, st := range adj {
			outBytes := make([][]int, p)
			for i := 0; i < p; i++ {
				if len(st.Out[i]) == 0 {
					continue
				}
				size := headerBytes + known[sg][i]*p*countEntryBytes
				row := make([]int, len(st.Out[i]))
				for k := range row {
					row[k] = size
				}
				outBytes[i] = row
			}
			stages[sg] = sched.Stage{Out: st.Out, In: st.In, OutBytes: outBytes}
		}
		// A circulant pattern has rank-invariant knowledge counts, so the
		// count-sized payloads stay uniform per stage and the pattern's
		// symmetry hint carries over to the exchange schedule.
		s.sched = &sched.StaticStages{Procs: p, Stages: stages, Sym: s.pat.Sym}
	})
	return s.sched, nil
}

func (s *scheduleSync) ExchangeCounts(c *Ctx) ([][]int, error) {
	p := c.NProcs()
	rank := c.Pid()
	if s.pat.Procs != p {
		return nil, fmt.Errorf("bsp: schedule for %d processes on a %d-process run", s.pat.Procs, p)
	}
	known := newCountKnowledge(c)
	traced := c.proc.Tracing()
	if traced {
		defer c.proc.TraceStage(-1)
	}
	for stage, st := range s.pat.Adjacency() {
		if traced {
			c.proc.TraceStage(stage)
		}
		ins := st.In[rank]
		outs := st.Out[rank]
		if len(ins) == 0 && len(outs) == 0 {
			continue
		}
		tag := tagCountBase + stage

		recvs := make([]*simnet.Request, len(ins))
		for k, src := range ins {
			recvs[k] = c.proc.Irecv(src, tag)
		}
		// Everything known so far travels along every out-edge.
		var sends []*simnet.Request
		if len(outs) > 0 {
			payload := known.snapshot()
			size := headerBytes + len(payload)*p*countEntryBytes
			for _, dst := range outs {
				sends = append(sends, c.proc.Isend(dst, tag, size, payload))
			}
		}
		for k, rreq := range recvs {
			if !known.absorb(c.proc.Wait(rreq)) {
				return nil, fmt.Errorf("bsp: process %d received a malformed count map from %d", rank, ins[k])
			}
		}
		for _, sreq := range sends {
			c.proc.Wait(sreq)
		}
	}
	return known.complete(rank)
}

// NewAdaptedSynchronizer runs the model-driven construction of Chapter 7 on
// the supplied parameter matrices, costs every candidate with the count
// payload it would carry (WithCountPayload), and wraps the winner as a
// runtime synchronizer. It returns the adaptation result so callers can
// report the ranking.
func NewAdaptedSynchronizer(params barrier.Params, opts barrier.CostOptions) (Synchronizer, *adapt.Result, error) {
	res, err := adapt.GreedySync(params, opts, countEntryBytes)
	if err != nil {
		return nil, nil, err
	}
	sync, err := NewScheduleSynchronizer(res.Best.Pattern)
	if err != nil {
		return nil, nil, err
	}
	return sync, res, nil
}

// RunWith executes the SPMD program with a specific synchronizer ending every
// superstep; Run is RunWith with the default dissemination synchronizer.
func RunWith(m Machine, sync Synchronizer, program Program, opts ...simnet.Options) (*simnet.Result, error) {
	if m == nil {
		return nil, errors.New("bsp: nil machine")
	}
	if sync == nil {
		sync = DefaultSynchronizer()
	}
	return simnet.Run(m, func(p *simnet.Proc) error {
		ctx := newCtx(p, m)
		ctx.sync = sync
		return program(ctx)
	}, opts...)
}
