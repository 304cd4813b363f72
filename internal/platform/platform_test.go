package platform

import (
	"math"
	"testing"
	"testing/quick"

	"hbsp/internal/kernels"
	"hbsp/internal/topology"
)

func TestPresetsValidate(t *testing.T) {
	for name, p := range Presets() {
		if err := p.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	if len(Presets()) != 7 {
		t.Fatalf("expected 7 presets, got %d", len(Presets()))
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	p := Xeon8x2x4()
	p.Cores = nil
	if err := p.Validate(); err == nil {
		t.Error("missing cores should fail")
	}

	p = Xeon8x2x4()
	delete(p.Links, topology.DistanceNetwork)
	if err := p.Validate(); err == nil {
		t.Error("missing link class should fail")
	}

	p = Xeon8x2x4()
	p.SelfOverhead = 0
	if err := p.Validate(); err == nil {
		t.Error("zero self overhead should fail")
	}

	p = Xeon8x2x4()
	p.HeteroSpread = 1.5
	if err := p.Validate(); err == nil {
		t.Error("excessive spread should fail")
	}

	p = Xeon8x2x4()
	p.Topology.Nodes = 0
	if err := p.Validate(); err == nil {
		t.Error("bad topology should fail")
	}
}

func TestLatencyReflectsTopology(t *testing.T) {
	p := Xeon8x2x4()
	pl, err := p.PlaceWith(16, topology.Block)
	if err != nil {
		t.Fatal(err)
	}
	// Block placement: ranks 0..7 on node 0, 8..15 on node 1.
	lSocket := p.Latency(pl, 0, 1)
	lNode := p.Latency(pl, 0, 4)
	lNet := p.Latency(pl, 0, 8)
	if !(lSocket < lNode && lNode < lNet) {
		t.Fatalf("latency ordering violated: socket=%g node=%g net=%g", lSocket, lNode, lNet)
	}
	if lNet < 10e-6 {
		t.Fatalf("network latency suspiciously small: %g", lNet)
	}
	if got := p.Latency(pl, 3, 3); got != 0 {
		t.Fatalf("self latency = %g, want 0", got)
	}
	if got := p.Overhead(pl, 3, 3); got != p.SelfOverhead {
		t.Fatalf("self overhead = %g, want %g", got, p.SelfOverhead)
	}
}

func TestPairFactorDeterministicAndSymmetric(t *testing.T) {
	p := Xeon8x2x4()
	pl, _ := p.Place(32)
	a := p.Latency(pl, 3, 17)
	b := p.Latency(pl, 3, 17)
	if a != b {
		t.Fatal("latency not deterministic")
	}
	if p.Latency(pl, 3, 17) != p.Latency(pl, 17, 3) {
		t.Fatal("pair factor not symmetric")
	}
	// Heterogeneity: not all network pairs identical.
	l1 := p.Latency(pl, 0, 1)
	l2 := p.Latency(pl, 0, 9)
	if pl.Distance(0, 1) == pl.Distance(0, 9) && l1 == l2 {
		t.Fatal("expected per-pair spread within a distance class")
	}
}

func TestMatrices(t *testing.T) {
	p := Xeon8x2x4()
	pl, _ := p.Place(8)
	L := p.LatencyMatrix(pl)
	O := p.OverheadMatrix(pl)
	B := p.BetaMatrix(pl)
	if L.Rows() != 8 || L.Cols() != 8 || O.Rows() != 8 || B.Rows() != 8 {
		t.Fatal("matrix shapes wrong")
	}
	for i := 0; i < 8; i++ {
		if L.At(i, i) != 0 {
			t.Fatalf("latency diagonal not zero at %d", i)
		}
		if O.At(i, i) != p.SelfOverhead {
			t.Fatalf("overhead diagonal wrong at %d", i)
		}
	}
}

func TestKernelTimes(t *testing.T) {
	p := Xeon8x2x4()
	// Small in-cache DAXPY is much faster per element than a DRAM-sized one.
	small := p.SecondsPerElement(0, kernels.DAXPY, 1024)
	large := p.SecondsPerElement(0, kernels.DAXPY, 8*1024*1024)
	if small <= 0 || large <= 0 {
		t.Fatal("non-positive per-element times")
	}
	if large <= small {
		t.Fatalf("expected out-of-cache slowdown: small=%g large=%g", small, large)
	}
	// Zero-flop kernels are still assigned a bandwidth-bound cost.
	if got := p.KernelTime(0, kernels.Copy, 1024); got <= 0 {
		t.Fatalf("copy kernel time = %g", got)
	}
	if got := p.SecondsPerElement(0, kernels.DAXPY, 0); got != 0 {
		t.Fatalf("zero-size problem should cost 0, got %g", got)
	}
}

func TestHeteroDemoNodesDiffer(t *testing.T) {
	p := HeteroDemo()
	fast := p.KernelRate(0, kernels.DAXPY, 1024)
	slow := p.KernelRate(1, kernels.DAXPY, 1024)
	if fast <= slow {
		t.Fatalf("expected node 0 faster than node 1: %g vs %g", fast, slow)
	}
}

func TestMachineBasics(t *testing.T) {
	p := Xeon8x2x4()
	m, err := p.Machine(16)
	if err != nil {
		t.Fatal(err)
	}
	if m.Procs() != 16 {
		t.Fatalf("Procs = %d", m.Procs())
	}
	if m.NIC(0) == m.NIC(1) {
		t.Fatal("round-robin ranks 0 and 1 should be on different nodes")
	}
	if lat, gap, _, ovh, _ := m.Pair(0, 1); lat <= 0 || ovh <= 0 || gap < 0 {
		t.Fatal("machine parameters must be positive")
	}
	if _, _, beta, _, _ := m.Pair(0, 0); beta != 0 {
		t.Fatal("self beta should be 0")
	}
	if m.SelfOverhead(3) != p.SelfOverhead {
		t.Fatal("SelfOverhead mismatch")
	}
	if m.KernelTime(0, kernels.DAXPY, 1024) <= 0 {
		t.Fatal("kernel time must be positive")
	}
	if m.String() == "" || p.String() == "" {
		t.Fatal("String() should be non-empty")
	}
	if _, err := p.Machine(1000); err == nil {
		t.Fatal("oversubscription should fail")
	}
}

func TestMachineNoiseDeterministicAndBounded(t *testing.T) {
	p := Xeon8x2x4()
	m, _ := p.Machine(4)
	a := m.Noise(2, 7)
	b := m.Noise(2, 7)
	if a != b {
		t.Fatal("noise not deterministic")
	}
	if a < 1 {
		t.Fatalf("noise factor %g < 1", a)
	}
	other := m.WithRunSeed(99).Noise(2, 7)
	if other == a {
		t.Fatal("different run seeds should give different noise")
	}
	// Zero noise profile always returns exactly 1.
	quiet := *p
	quiet.NoiseRel = 0
	qm, _ := (&quiet).Machine(4)
	if qm.Noise(0, 0) != 1 {
		t.Fatal("zero-noise machine should return factor 1")
	}
}

// Property: noise factors are finite, at least 1, and rarely huge.
func TestNoiseDistributionProperty(t *testing.T) {
	p := Xeon8x2x4()
	m, _ := p.Machine(2)
	f := func(rank uint8, seq uint16) bool {
		v := m.Noise(int(rank)%2, uint64(seq))
		return v >= 1 && !math.IsInf(v, 0) && !math.IsNaN(v) && v < 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: latency matrices are symmetric and non-negative for every preset
// at a modest process count.
func TestLatencyMatrixSymmetryProperty(t *testing.T) {
	for name, p := range Presets() {
		ranks := 8
		if p.Topology.TotalCores() < ranks {
			ranks = p.Topology.TotalCores()
		}
		pl, err := p.Place(ranks)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		L := p.LatencyMatrix(pl)
		for i := 0; i < ranks; i++ {
			for j := 0; j < ranks; j++ {
				if L.At(i, j) < 0 {
					t.Fatalf("%s: negative latency at (%d,%d)", name, i, j)
				}
				if math.Abs(L.At(i, j)-L.At(j, i)) > 1e-12 {
					t.Fatalf("%s: asymmetric latency at (%d,%d)", name, i, j)
				}
			}
		}
	}
}
