package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"hbsp/sim"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between the closest ranks of the sorted sample (the "type 7" estimator:
// position q·(n−1)). It returns 0 for an empty sample and leaves xs as is.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a ratio without a base is not
// measured).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest folds simulated results into one SHA-256 content hash. The fold is
// order-sensitive, so callers feed results in a seed-determined order.
type digest struct {
	h   hash.Hash
	buf []byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], v)
	d.h.Write(d.buf)
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

// result folds everything a run predicts: the makespan and every per-rank
// time bit for bit, the traffic counters and the collapse decision.
func (d *digest) result(r *sim.Result) {
	d.u64(math.Float64bits(r.MakeSpan))
	d.u64(uint64(len(r.Times)))
	for _, t := range r.Times {
		d.u64(math.Float64bits(t))
	}
	d.u64(uint64(r.Messages))
	d.u64(uint64(r.Bytes))
	applied := uint64(0)
	if r.Collapse.Applied {
		applied = 1
	}
	d.u64(applied)
	d.u64(uint64(r.Collapse.Classes))
	d.str(r.Collapse.Reason)
}

// hex returns the first 16 hex digits of the digest so far.
func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// sameResult reports whether two results are bit-identical in every field
// the digest folds.
func sameResult(a, b *sim.Result) bool { return a.Collapse == b.Collapse && sameTimes(a, b) }

// sameTimes reports whether two results predict bit-identical times and
// traffic counters, whatever their collapse decisions.
func sameTimes(a, b *sim.Result) bool {
	if math.Float64bits(a.MakeSpan) != math.Float64bits(b.MakeSpan) ||
		a.Messages != b.Messages || a.Bytes != b.Bytes || len(a.Times) != len(b.Times) {
		return false
	}
	for i := range a.Times {
		if math.Float64bits(a.Times[i]) != math.Float64bits(b.Times[i]) {
			return false
		}
	}
	return true
}

// cloneResult copies a result whose buffers an evaluator may reuse.
func cloneResult(r *sim.Result) *sim.Result {
	c := *r
	c.Times = append([]float64(nil), r.Times...)
	return &c
}

// mix derives a well-spread 64-bit value from a seed and a stream position
// (splitmix64 finalizer), so op i's inputs depend on nothing but (seed, i).
func mix(seed int64, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
