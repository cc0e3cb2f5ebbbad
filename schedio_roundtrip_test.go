package repro_test

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
	"repro/internal/schedio"
)

// TestIgnoreHierarchyRoundTrip: a schedule built with IgnoreHierarchy may
// overlap parent and child tests. schedio records the flag, so Load
// verifies under the same constraint set and accepts the file, and a
// re-save reproduces the bytes.
func TestIgnoreHierarchyRoundTrip(t *testing.T) {
	sc, ok := corpus.ByName("demo8-w16-ignorehier")
	if !ok {
		t.Fatal("demo8-w16-ignorehier missing from corpus")
	}
	if !sc.Params.IgnoreHierarchy {
		t.Fatal("demo8-w16-ignorehier no longer sets IgnoreHierarchy")
	}
	for _, backend := range []string{"classic", "anneal", "portfolio"} {
		t.Run(backend, func(t *testing.T) {
			_, raw, err := corpus.ReplaySchedule(sc, backend)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(raw, []byte(`"ignoreHierarchy": true`)) {
				t.Fatalf("saved schedule does not record ignoreHierarchy:\n%s", raw)
			}
			loaded, err := schedio.Load(bytes.NewReader(raw), sc.Build())
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if !loaded.Params.IgnoreHierarchy {
				t.Fatal("Load dropped IgnoreHierarchy")
			}
			var again bytes.Buffer
			if err := schedio.Save(&again, loaded); err != nil {
				t.Fatal(err)
			}
			if d := corpus.Diff(raw, again.Bytes()); d != "" {
				t.Fatalf("round trip changed the bytes:\n%s", d)
			}
		})
	}
}
