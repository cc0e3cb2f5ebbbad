package repro_test

// The corpus golden-regression gate, as a plain `go test` so drift is
// caught locally before CI runs cmd/socregress: every scenario in
// internal/corpus is replayed across every output layer (schedule bytes,
// width sweeps, data-volume curves, effective widths, lower bounds,
// socserved HTTP responses, and the packers' schedules) and compared
// byte-for-byte against the golden
// files committed under testdata/golden/.
//
// When a change legitimately moves an output — a new heuristic, a format
// extension — re-bless with `go run ./cmd/socregress -update` and commit
// the golden diff alongside the code so the review sees exactly what moved.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
)

func TestCorpusGoldenRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay skipped in -short mode")
	}
	for _, sc := range corpus.All() {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			got, err := corpus.Replay(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, layer := range corpus.Layers() {
				path := filepath.Join("testdata", "golden", sc.Name, layer)
				want, err := os.ReadFile(path)
				if err != nil {
					t.Errorf("missing golden %s (bless with `go run ./cmd/socregress -update`): %v", path, err)
					continue
				}
				if d := corpus.Diff(want, got[layer]); d != "" {
					t.Errorf("%s drifted from %s:\n%s\n(if intentional, re-bless with `go run ./cmd/socregress -update`)",
						layer, path, d)
				}
			}
		})
	}
}

// TestCorpusGoldenComplete fails when a golden directory exists for a
// scenario that is no longer in the corpus — stale bytes nobody checks.
func TestCorpusGoldenComplete(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("no golden directory (bless with `go run ./cmd/socregress -update`): %v", err)
	}
	for _, name := range corpus.StaleDirs(dir) {
		t.Errorf("stale golden directory %q names no corpus scenario (remove with `go run ./cmd/socregress -update`)", name)
	}
}
