package platform

import (
	"testing"

	"hbsp/internal/topology"
)

func TestFatTreeAndDragonflyProfiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		prof *Profile
	}{
		{"fattree", FatTreeCluster(4, 4)},
		{"dragonfly", DragonflyCluster(4, 4)},
	} {
		if err := tc.prof.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, ok := tc.prof.Links[topology.DistanceGroup]; !ok {
			t.Fatalf("%s: no DistanceGroup link class", tc.name)
		}
		m, err := tc.prof.Machine(16)
		if err != nil {
			t.Fatal(err)
		}
		if !m.HomogeneousClasses() {
			t.Errorf("%s: grouped preset must stay collapse-eligible", tc.name)
		}
		if m.UniformPairs() {
			t.Errorf("%s: multi-class machine reports uniform pairs", tc.name)
		}
		// Cross-group hops are slower than intra-group ones; the pair classes
		// distinguish them.
		lIntra, _, _, _, _ := m.Pair(0, 1)
		lCross, _, _, _, _ := m.Pair(0, 15)
		if !(lCross > lIntra) {
			t.Errorf("%s: cross-group latency %v not above intra-group %v", tc.name, lCross, lIntra)
		}
		if m.PairClass(0, 1) == m.PairClass(0, 15) {
			t.Errorf("%s: intra- and cross-group pairs share class %d", tc.name, m.PairClass(0, 1))
		}
	}
}

// TestGroupLinkRequiredIffGrouped pins the validation coupling: a grouped
// topology spanning several groups requires a DistanceGroup link class, and
// an ungrouped profile must not carry one.
func TestGroupLinkRequiredIffGrouped(t *testing.T) {
	prof := FatTreeCluster(4, 4)
	delete(prof.Links, topology.DistanceGroup)
	if err := prof.Validate(); err == nil {
		t.Error("grouped profile without a DistanceGroup link validated")
	}

	flat := FlatCluster(8)
	flat.Links[topology.DistanceGroup] = flat.Links[topology.DistanceNetwork]
	if err := flat.Validate(); err == nil {
		t.Error("ungrouped profile with a DistanceGroup link validated")
	}

	// A grouped topology that fits in a single group needs no group link.
	single := FatTreeCluster(1, 8)
	delete(single.Links, topology.DistanceGroup)
	if err := single.Validate(); err != nil {
		t.Errorf("single-group fat-tree requires no group link: %v", err)
	}
}
