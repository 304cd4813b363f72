package barrier

import (
	"math/bits"

	"hbsp/internal/sched"
)

// StageAdj is the sparse per-row adjacency of one stage: Out[i] lists the
// destinations process i signals, In[j] lists the sources signalling j, and
// OutBytes[i][k] is the payload size of the edge i→Out[i][k] (nil when the
// pattern carries no payload). It is the representation Verify, Predict and
// Execute evaluate, so all run in O(signals) per stage instead of the O(P³)
// dense matrix products of the literal Eq. 5.1/5.2 formulation (kept as
// VerifyDense for reference and ablation). It is an alias for the
// discrete-event evaluator's stage type, so a pattern's cached adjacency is
// directly executable by internal/sched without conversion.
type StageAdj = sched.Stage

// Adjacency returns the sparse adjacency of every stage, building and caching
// it on first use. The build is guarded by a sync.Once, so concurrent callers
// (e.g. simulated processes sharing one verified schedule) are race-free. The
// cache assumes the Stages and Payload slices are not mutated after the first
// call; pattern constructors in this package and in internal/adapt finish all
// stage and payload edits before the pattern escapes.
func (pat *Pattern) Adjacency() []StageAdj {
	pat.adjOnce.Do(func() {
		p := pat.Procs
		adj := make([]StageAdj, len(pat.Stages))
		for s, st := range pat.Stages {
			out := make([][]int, p)
			in := make([][]int, p)
			var outBytes [][]int
			if pat.Payload != nil && pat.Payload[s] != nil {
				outBytes = make([][]int, p)
			}
			for i := 0; i < p; i++ {
				for _, j := range st.RowTrue(i) {
					out[i] = append(out[i], j)
					in[j] = append(in[j], i)
					if outBytes != nil {
						outBytes[i] = append(outBytes[i], int(pat.Payload[s].At(i, j)))
					}
				}
			}
			adj[s] = StageAdj{Out: out, In: in, OutBytes: outBytes}
		}
		pat.adj = adj
	})
	return pat.adj
}

// reachSets is a P×P bit matrix: row j holds the set of processes whose
// contribution (arrival proof, broadcast message, reduction operand, ...)
// process j can account for. It is the sparse equivalent of the knowledge
// matrix K of Eqs. 5.1/5.2, tracking reachability instead of signal counts.
type reachSets struct {
	p, words int
	bits     []uint64
}

func newReachSets(p int) *reachSets {
	words := (p + 63) / 64
	r := &reachSets{p: p, words: words, bits: make([]uint64, p*words)}
	for j := 0; j < p; j++ {
		r.bits[j*words+j/64] |= 1 << (uint(j) % 64)
	}
	return r
}

func (r *reachSets) row(j int) []uint64 { return r.bits[j*r.words : (j+1)*r.words] }

func (r *reachSets) has(j, i int) bool {
	return r.bits[j*r.words+i/64]&(1<<(uint(i)%64)) != 0
}

func (r *reachSets) count(j int) int {
	n := 0
	for _, w := range r.row(j) {
		n += bits.OnesCount64(w)
	}
	return n
}

// step applies one stage: every receiver absorbs the pre-stage set of each of
// its senders (the K_{i-1}·S_i term evaluated edge by edge). prev is scratch
// storage of the same size that receives the pre-stage snapshot.
func (r *reachSets) step(st StageAdj, prev []uint64) {
	copy(prev, r.bits)
	for i, dests := range st.Out {
		if len(dests) == 0 {
			continue
		}
		src := prev[i*r.words : (i+1)*r.words]
		for _, j := range dests {
			dst := r.row(j)
			for w := range dst {
				dst[w] |= src[w]
			}
		}
	}
}

// KnownBeforeStage returns, per stage and per process, the number of
// distinct contributions the process holds when the stage begins (its own
// plus everything absorbed in earlier stages): KnownBeforeStage()[s][j] is
// |K_j| entering stage s. The schedule-synchronizer fast path uses it to
// price the count-exchange payload a rank snapshots at each stage without
// moving any data.
func (pat *Pattern) KnownBeforeStage() [][]int {
	r := newReachSets(pat.Procs)
	prev := make([]uint64, len(r.bits))
	out := make([][]int, len(pat.Adjacency()))
	for s, st := range pat.Adjacency() {
		row := make([]int, pat.Procs)
		for j := 0; j < pat.Procs; j++ {
			row[j] = r.count(j)
		}
		out[s] = row
		r.step(st, prev)
	}
	return out
}

// patSchedule adapts a pattern's cached adjacency to the evaluator's
// Schedule interface.
type patSchedule struct{ pat *Pattern }

func (s patSchedule) NumProcs() int             { return s.pat.Procs }
func (s patSchedule) NumStages() int            { return len(s.pat.Adjacency()) }
func (s patSchedule) StageAt(i int) sched.Stage { return s.pat.Adjacency()[i] }

// Symmetry forwards the pattern's declared rank symmetry to the evaluator
// (sched.SymmetricSchedule).
func (s patSchedule) Symmetry() sched.Symmetry { return s.pat.Sym }

// ScheduleView returns the pattern as an evaluator-executable schedule (the
// cached sparse adjacency, stage by stage).
func (pat *Pattern) ScheduleView() sched.Schedule { return patSchedule{pat: pat} }

// FloodReach returns (building and caching on first use) the knowledge
// reach sets of the pattern in the evaluator's representation: the origins
// whose contribution a knowledge-flooding walk delivers to each rank. The
// direct schedule flood consults it on every collective call, so it is
// cached like the adjacency rather than recomputed per call.
func (pat *Pattern) FloodReach() *sched.ReachSet {
	pat.reachOnce.Do(func() {
		pat.reachSet = sched.ReachOf(pat.ScheduleView())
	})
	return pat.reachSet
}
