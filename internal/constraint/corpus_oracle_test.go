package constraint_test

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/corpus"
)

// TestDenseMatchesReferenceCorpus runs the map-based oracle over every
// corpus scenario's SOC and budget, with and without hierarchy.
func TestDenseMatchesReferenceCorpus(t *testing.T) {
	for i, sc := range corpus.All() {
		s := sc.Build()
		params, err := sc.ResolveParams(s)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, ignore := range []bool{false, true} {
			cfg := constraint.Config{PowerMax: params.PowerMax, IgnoreHierarchy: ignore}
			constraint.CheckAgainstReference(t, s, cfg, int64(i), 1000)
		}
	}
}
