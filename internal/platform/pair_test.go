package platform

import (
	"math"
	"testing"

	"hbsp/internal/topology"
)

// TestPairMatchesProfileFormulas pins the fused per-pair call against the
// profile formulas bit for bit — latency, gap, beta, overhead, and the
// return latency, which must equal the reverse pair's latency. It covers
// every preset (the grouped fat-tree and dragonfly ones included, whose
// cross-group pairs take the DistanceGroup column) under both placement
// policies, every pair at P=64 with self pairs among them, and a
// deterministic sample of pairs at P=4096.
func TestPairMatchesProfileFormulas(t *testing.T) {
	for name, base := range Presets() {
		for _, policy := range []topology.PlacementPolicy{topology.Block, topology.RoundRobin} {
			for _, p := range []int{64, 4096} {
				prof := withCapacity(base, p)
				pl, err := prof.PlaceWith(p, policy)
				if err != nil {
					t.Fatalf("%s/%v/P=%d: %v", name, policy, p, err)
				}
				m := prof.MachineFor(pl)
				check := func(i, j int) {
					lat, gap, beta, ovh, ret := m.Pair(i, j)
					got := [5]float64{lat, gap, beta, ovh, ret}
					want := [5]float64{prof.Latency(pl, i, j), prof.Gap(pl, i, j), prof.Beta(pl, i, j),
						prof.Overhead(pl, i, j), prof.Latency(pl, j, i)}
					for k := range got {
						if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
							t.Fatalf("%s/%v/P=%d Pair(%d,%d)[%d] = %v, profile formula %v",
								name, policy, p, i, j, k, got[k], want[k])
						}
					}
				}
				if p <= 64 {
					for i := 0; i < p; i++ {
						for j := 0; j < p; j++ {
							check(i, j)
						}
					}
					continue
				}
				x := uint64(p)
				for k := 0; k < 4096; k++ {
					x = x*6364136223846793005 + 1442695040888963407
					i, j := int(x>>33)%p, int(x>>13)%p
					check(i, j)
					check(i, i)
				}
			}
		}
	}
}

// withCapacity returns the profile itself when its topology holds p ranks,
// otherwise a copy with enough nodes (a whole number of switch groups on
// grouped topologies). Pair pricing reads only links, placement and the
// heterogeneity stream, so the copy's per-node core list is left as is.
func withCapacity(prof *Profile, p int) *Profile {
	t := prof.Topology
	if t.TotalCores() >= p {
		return prof
	}
	c := *prof
	c.Topology.Nodes = (p + t.CoresPerNode() - 1) / t.CoresPerNode()
	if g := t.NodesPerGroup; g > 0 {
		c.Topology.Nodes = (c.Topology.Nodes + g - 1) / g * g
	}
	return &c
}

// TestSymmetryPredicates pins the machine side of the collapse eligibility
// tests on the presets the collapse paths rely on.
func TestSymmetryPredicates(t *testing.T) {
	flat, err := FlatClusterMachine(16)
	if err != nil {
		t.Fatal(err)
	}
	if !flat.HomogeneousClasses() || !flat.UniformPairs() {
		t.Errorf("flat cluster: homogeneous=%v uniform=%v, want true/true", flat.HomogeneousClasses(), flat.UniformPairs())
	}
	homog, err := XeonClusterHomogeneousMachine(16)
	if err != nil {
		t.Fatal(err)
	}
	if !homog.HomogeneousClasses() {
		t.Error("homogeneous Xeon: HomogeneousClasses() = false")
	}
	if homog.UniformPairs() {
		t.Error("homogeneous Xeon at 16 ranks on 2 nodes: UniformPairs() = true, want false (intra-node pairs exist)")
	}
	hetero, err := XeonClusterMachine(16)
	if err != nil {
		t.Fatal(err)
	}
	if hetero.HomogeneousClasses() {
		t.Error("Xeon with HeteroSpread > 0: HomogeneousClasses() = true")
	}
	noisy, err := Xeon8x2x4().Machine(16)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.HomogeneousClasses() {
		t.Error("Xeon8x2x4 with NoiseRel > 0: HomogeneousClasses() = true")
	}
}
