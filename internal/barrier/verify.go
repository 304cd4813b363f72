package barrier

import (
	"fmt"

	"hbsp/internal/sched"
)

// VerifySchedule is Verify for an evaluator-facing schedule, typically one of
// the streaming generators: the same knowledge recursion, the same
// postcondition for sem (root is ignored by the non-rooted semantics) and the
// same error text as Pattern.Verify on the dense pattern with identical
// stages. It never builds a P×P matrix where the schedule's shape makes one
// unnecessary:
//
//   - circulant schedules (sched.CirculantSchedule) track rank 0's reach set
//     only — every rank's set is rank 0's rotated — at O(stages·P/64);
//   - broadcast and reduction propagate one flag per rank, forward from the
//     root or backward into it, at O(stages·P + edges);
//   - everything else runs the P×P-bit reach recursion of Verify.
//
// StageAt is called on s, so a streaming schedule must not be evaluated
// concurrently with its verification.
func VerifySchedule(s sched.Schedule, sem Semantics, root int) error {
	p, stages := s.NumProcs(), s.NumStages()
	if p < 1 {
		return fmt.Errorf("%w: %d processes", ErrInvalidPattern, p)
	}
	if stages == 0 {
		return fmt.Errorf("%w: no stages", ErrInvalidPattern)
	}
	if rooted(sem) && (root < 0 || root >= p) {
		return fmt.Errorf("%w: root %d out of range for %d processes", ErrInvalidPattern, root, p)
	}
	if cs, ok := s.(sched.CirculantSchedule); ok {
		return verifyCirculant(cs, sem, root)
	}
	for k := 0; k < stages; k++ {
		for i, dests := range s.StageAt(k).Out {
			for _, j := range dests {
				if j == i {
					return fmt.Errorf("%w: stage %d contains a self-signal at process %d", ErrInvalidPattern, k, i)
				}
			}
		}
	}
	return verifyReach(s, sem, root)
}

func rooted(sem Semantics) bool { return sem == SemBroadcast || sem == SemReduce }

// verifyReach checks the postcondition of a structurally valid schedule.
func verifyReach(s sched.Schedule, sem Semantics, root int) error {
	switch sem {
	case SemBroadcast:
		return verifyBroadcast(s, root)
	case SemReduce:
		return verifyReduce(s, root)
	}
	p := s.NumProcs()
	r := newReachSets(p)
	prev := make([]uint64, len(r.bits))
	for k := 0; k < s.NumStages(); k++ {
		r.step(s.StageAt(k), prev)
	}
	return checkReach(sem, p, root, r.has)
}

// verifyBroadcast propagates the root's message forward: a rank holding it
// before a stage hands it to its destinations in that stage (the pre-stage
// snapshot of the recursion, so nothing chains within one stage).
func verifyBroadcast(s sched.Schedule, root int) error {
	p := s.NumProcs()
	has := make([]bool, p)
	has[root] = true
	var gained []int
	for k := 0; k < s.NumStages(); k++ {
		gained = gained[:0]
		for i, dests := range s.StageAt(k).Out {
			if !has[i] {
				continue
			}
			for _, j := range dests {
				if !has[j] {
					gained = append(gained, j)
				}
			}
		}
		for _, j := range gained {
			has[j] = true
		}
	}
	return checkReach(SemBroadcast, p, root, func(j, _ int) bool { return has[j] })
}

// verifyReduce propagates backward from the root: walking the stages in
// reverse, a rank's operand reaches the root if, in some stage, it signals a
// rank whose operand reaches the root through the later stages alone.
func verifyReduce(s sched.Schedule, root int) error {
	p := s.NumProcs()
	reaches := make([]bool, p)
	reaches[root] = true
	var gained []int
	for k := s.NumStages() - 1; k >= 0; k-- {
		gained = gained[:0]
		for i, dests := range s.StageAt(k).Out {
			if reaches[i] {
				continue
			}
			for _, j := range dests {
				if reaches[j] {
					gained = append(gained, i)
					break
				}
			}
		}
		for _, i := range gained {
			reaches[i] = true
		}
	}
	return checkReach(SemReduce, p, root, func(_, i int) bool { return reaches[i] })
}

// verifyCirculant runs the recursion on rank 0's reach set R alone. A stage
// with offset o makes every rank j absorb the pre-stage set of rank j−o, so
// R ∪= R − o; rank j's set is R + j, hence process j knows process i iff
// (i−j) mod P ∈ R.
func verifyCirculant(cs sched.CirculantSchedule, sem Semantics, root int) error {
	p := cs.NumProcs()
	words := (p + 63) / 64
	r := make([]uint64, words)
	shifted := make([]uint64, words)
	r[0] = 1
	tail := ^uint64(0) >> uint(words*64-p) // valid bits of the last word
	for k := 0; k < cs.NumStages(); k++ {
		off, _ := cs.CirculantStage(k)
		if off %= p; off == 0 {
			continue
		}
		if off < 0 {
			off += p
		}
		// shifted bit y = r bit (y+off) mod p, so r|shifted = R ∪ (R − off).
		for w := range shifted {
			shifted[w] = ringBits(r, p, (w*64+off)%p)
		}
		shifted[words-1] &= tail
		full := true
		for w := range r {
			r[w] |= shifted[w]
			want := ^uint64(0)
			if w == words-1 {
				want = tail
			}
			full = full && r[w] == want
		}
		if full {
			break
		}
	}
	in := func(d int) bool {
		d %= p
		if d < 0 {
			d += p
		}
		return r[d/64]&(1<<(uint(d)%64)) != 0
	}
	rows := p
	if !rooted(sem) {
		// Row i=0 already visits every difference (0−j) mod P, so it fails
		// exactly when the full scan would, and at the same first pair.
		rows = 1
	}
	return checkReachRows(sem, rows, p, root, func(j, i int) bool { return in(i - j) })
}

// ringBits returns the 64 bits of the p-bit ring r starting at position
// pos < p, wrapping past p−1 to 0.
func ringBits(r []uint64, p, pos int) uint64 {
	if pos+64 <= p {
		w, sh := pos/64, uint(pos%64)
		v := r[w] >> sh
		if sh != 0 {
			v |= r[w+1] << (64 - sh)
		}
		return v
	}
	var v uint64
	for b := 0; b < 64; b++ {
		q := (pos + b) % p
		v |= (r[q/64] >> (uint(q) % 64) & 1) << uint(b)
	}
	return v
}

// checkReach verifies the semantics' postcondition against final reach sets:
// every pair must be covered for the barrier-like collectives, only the
// root's row for a broadcast, only the root's column for a reduction. Rooted
// semantics restrict the scan accordingly, so the check never dominates the
// O(signals) reach recursion at large P.
func checkReach(sem Semantics, p, root int, knows func(j, i int) bool) error {
	return checkReachRows(sem, p, p, root, knows)
}

// checkReachRows is checkReach scanning only the first rows origins i of the
// barrier-like semantics.
func checkReachRows(sem Semantics, rows, p, root int, knows func(j, i int) bool) error {
	iLo, iHi, jLo, jHi := 0, rows, 0, p
	switch sem {
	case SemBroadcast:
		iLo, iHi = root, root+1
	case SemReduce:
		iHi = p
		jLo, jHi = root, root+1
	}
	for i := iLo; i < iHi; i++ {
		for j := jLo; j < jHi; j++ {
			if knows(j, i) {
				continue
			}
			if sem == SemBarrier {
				return fmt.Errorf("%w: process %d cannot prove the arrival of process %d", ErrInvalidPattern, j, i)
			}
			return fmt.Errorf("%w: %s schedule never delivers the contribution of process %d to process %d",
				ErrInvalidPattern, sem, i, j)
		}
	}
	return nil
}
