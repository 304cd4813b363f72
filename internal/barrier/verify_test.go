package barrier

import (
	"fmt"
	"testing"

	"hbsp/internal/matrix"
	"hbsp/internal/sched"
)

// streamCase is one streaming generator with the semantics it establishes.
type streamCase struct {
	name  string
	sem   Semantics
	build func(p, root int) (sched.Schedule, error)
}

var streamCases = []streamCase{
	{"dissemination", SemBarrier, func(p, _ int) (sched.Schedule, error) { return StreamDissemination(p) }},
	{"allreduce", SemAllReduce, func(p, _ int) (sched.Schedule, error) { return StreamAllReduce(p, 96) }},
	{"allgather", SemAllGather, func(p, _ int) (sched.Schedule, error) { return StreamAllGather(p, 96) }},
	{"allgather-ring", SemAllGather, func(p, _ int) (sched.Schedule, error) { return StreamAllGatherRing(p, 64) }},
	{"total-exchange", SemTotalExchange, func(p, _ int) (sched.Schedule, error) { return StreamTotalExchange(p, 64) }},
	{"broadcast", SemBroadcast, func(p, root int) (sched.Schedule, error) { return StreamBroadcast(p, root, 96) }},
	{"reduce", SemReduce, func(p, root int) (sched.Schedule, error) { return StreamReduce(p, root, 96) }},
}

// roots returns the roots to test at p: all of them for small p.
func roots(sem Semantics, p int) []int {
	if !rooted(sem) {
		return []int{0}
	}
	if p <= 13 {
		rs := make([]int, p)
		for i := range rs {
			rs[i] = i
		}
		return rs
	}
	return []int{0, p / 2, p - 1}
}

// denseOf materializes a schedule's stages as the dense pattern Verify
// checks (payload does not enter verification).
func denseOf(s sched.Schedule, sem Semantics, root int) *Pattern {
	p := s.NumProcs()
	pat := &Pattern{Name: "dense", Procs: p, Semantics: sem, Root: root}
	for k := 0; k < s.NumStages(); k++ {
		st := matrix.NewBool(p, p)
		for i, dests := range s.StageAt(k).Out {
			for _, j := range dests {
				st.Set(i, j, true)
			}
		}
		pat.Stages = append(pat.Stages, st)
	}
	return pat
}

// opaque hides a schedule's circulant view, so verification takes the
// generic per-rank path.
type opaque struct{ sched.Schedule }

// referenceVerify is Pattern.Verify on the schedule's dense pattern; where
// the dense stages would not fit a test (P−1 stages of P² cells at P=1000)
// it runs the same sparse recursion Verify runs, on the schedule itself.
func referenceVerify(s sched.Schedule, sem Semantics, root int) error {
	p := s.NumProcs()
	if int64(s.NumStages())*int64(p)*int64(p) <= 1<<24 {
		return denseOf(s, sem, root).Verify()
	}
	return VerifySchedule(opaque{s}, sem, root)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestVerifyScheduleMatchesVerify pins VerifySchedule's verdict and error
// text to Pattern.Verify for every streaming generator, and to the literal
// dense recursion (VerifyDense) at small P.
func TestVerifyScheduleMatchesVerify(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13, 64, 100, 1000} {
		for _, tc := range streamCases {
			for _, root := range roots(tc.sem, p) {
				s, err := tc.build(p, root)
				if err != nil {
					t.Fatalf("p=%d %s root %d: %v", p, tc.name, root, err)
				}
				got := VerifySchedule(s, tc.sem, root)
				if got != nil {
					t.Errorf("p=%d %s root %d: generator failed verification: %v", p, tc.name, root, got)
				}
				if want := referenceVerify(s, tc.sem, root); errText(got) != errText(want) {
					t.Errorf("p=%d %s root %d: VerifySchedule %q, Verify %q", p, tc.name, root, errText(got), errText(want))
				}
				if p <= 13 {
					if want := denseOf(s, tc.sem, root).VerifyDense(); errText(got) != errText(want) {
						t.Errorf("p=%d %s root %d: VerifySchedule %q, VerifyDense %q", p, tc.name, root, errText(got), errText(want))
					}
				}
			}
		}
	}
}

// dropStage is a schedule with stage k removed.
type dropStage struct {
	sched.Schedule
	k int
}

func (d dropStage) NumStages() int { return d.Schedule.NumStages() - 1 }
func (d dropStage) StageAt(i int) sched.Stage {
	if i >= d.k {
		i++
	}
	return d.Schedule.StageAt(i)
}

// truncated is a schedule cut after its first n stages.
type truncated struct {
	sched.Schedule
	n int
}

func (t truncated) NumStages() int { return t.n }

// selfSignal adds the edge rank→rank to stage k of a schedule.
type selfSignal struct {
	sched.Schedule
	k, rank int
}

func (s selfSignal) StageAt(i int) sched.Stage {
	st := s.Schedule.StageAt(i)
	if i != s.k {
		return st
	}
	out := append([][]int(nil), st.Out...)
	out[s.rank] = append(append([]int(nil), out[s.rank]...), s.rank)
	return sched.Stage{Out: out, In: st.In, OutBytes: st.OutBytes}
}

// circulantWith rebuilds a circulant schedule from edited (offset, size)
// stages, keeping the circulant fast path.
func circulantWith(t *testing.T, cs sched.CirculantSchedule, edit func(offs, sizes []int) ([]int, []int)) sched.Schedule {
	t.Helper()
	var offs, sizes []int
	for k := 0; k < cs.NumStages(); k++ {
		o, sz := cs.CirculantStage(k)
		offs, sizes = append(offs, o), append(sizes, sz)
	}
	offs, sizes = edit(offs, sizes)
	c, err := sched.NewCirculant(cs.NumProcs(), offs, sizes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sampleStages returns every stage index of a short schedule, and the ends
// and middle of a long one.
func sampleStages(n int) []int {
	if n <= 16 {
		ks := make([]int, n)
		for k := range ks {
			ks[k] = k
		}
		return ks
	}
	return []int{0, 1, n / 2, n - 2, n - 1}
}

// TestVerifyScheduleRejectsBrokenSchedules breaks every generator — a
// dropped stage, a missing circulant offset, a truncated binomial tree, a
// self-signal — and requires the dense Verify's error text for each.
func TestVerifyScheduleRejectsBrokenSchedules(t *testing.T) {
	failures := map[string]bool{}
	for _, p := range []int{3, 5, 8, 13, 64, 100} {
		for _, tc := range streamCases {
			for _, root := range roots(tc.sem, p) {
				s, err := tc.build(p, root)
				if err != nil {
					t.Fatal(err)
				}
				broken := map[string]sched.Schedule{}
				for _, k := range sampleStages(s.NumStages()) {
					broken[fmt.Sprintf("drop stage %d", k)] = dropStage{s, k}
					if k > 0 {
						broken[fmt.Sprintf("truncate to %d", k)] = truncated{s, k}
					}
				}
				broken["self-signal"] = selfSignal{s, s.NumStages() - 1, p - 1}
				if cs, ok := s.(sched.CirculantSchedule); ok {
					for _, k := range sampleStages(cs.NumStages()) {
						broken[fmt.Sprintf("drop offset %d", k)] = circulantWith(t, cs, func(offs, sizes []int) ([]int, []int) {
							return append(offs[:k:k], offs[k+1:]...), append(sizes[:k:k], sizes[k+1:]...)
						})
						broken[fmt.Sprintf("zero offset %d", k)] = circulantWith(t, cs, func(offs, sizes []int) ([]int, []int) {
							offs[k] = 0
							return offs, sizes
						})
					}
				}
				for what, b := range broken {
					got := VerifySchedule(b, tc.sem, root)
					want := denseOf(b, tc.sem, root).Verify()
					if errText(got) != errText(want) {
						t.Errorf("p=%d %s root %d, %s: VerifySchedule %q, Verify %q", p, tc.name, root, what, errText(got), errText(want))
					}
					if got != nil {
						failures[tc.name] = true
					}
				}
			}
		}
	}
	for _, tc := range streamCases {
		if !failures[tc.name] {
			t.Errorf("%s: no broken variant failed verification", tc.name)
		}
	}
}

// TestVerifyScheduleLargeCirculant checks the circulant path at a rank count
// whose P×P reach matrix would take 512 MiB: the intact allreduce verifies
// and one without its last stage names the first unreachable pair.
func TestVerifyScheduleLargeCirculant(t *testing.T) {
	const p = 1 << 16
	s, err := StreamAllReduce(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(s, SemAllReduce, 0); err != nil {
		t.Fatalf("allreduce at P=%d: %v", p, err)
	}
	// Without the 2^15 stage rank 0 holds the 2^15 contributions
	// 0, −1, …, −(2^15−1) mod P, so rank 0's own contribution reaches ranks
	// 0 … 2^15−1 only.
	err = VerifySchedule(truncatedCirculant(t, s, s.NumStages()-1), SemAllReduce, 0)
	want := "barrier: invalid pattern: allreduce schedule never delivers the contribution of process 0 to process 32768"
	if errText(err) != want {
		t.Fatalf("truncated allreduce: got %q, want %q", errText(err), want)
	}
}

func truncatedCirculant(t *testing.T, s sched.Schedule, n int) sched.Schedule {
	cs := s.(sched.CirculantSchedule)
	return circulantWith(t, cs, func(offs, sizes []int) ([]int, []int) { return offs[:n], sizes[:n] })
}
