package main

import (
	"strings"
	"testing"
)

func mkReport(pairs ...any) benchJSONReport {
	rep := benchJSONReport{Schema: "socbench-benchjson/v1"}
	for i := 0; i < len(pairs); i += 2 {
		rep.Benchmarks = append(rep.Benchmarks, benchJSONResult{
			Name:    pairs[i].(string),
			NsPerOp: int64(pairs[i+1].(int)),
		})
	}
	return rep
}

func TestCompareBenchReports(t *testing.T) {
	base := mkReport("A", 1000, "B", 2000, "C", 500)

	t.Run("within-threshold", func(t *testing.T) {
		table, failures := compareBenchReports(base, mkReport("A", 1200, "B", 1500, "C", 500), 25)
		if len(failures) != 0 {
			t.Fatalf("unexpected failures: %v", failures)
		}
		for _, name := range []string{"A", "B", "C"} {
			if !strings.Contains(table, name) {
				t.Errorf("delta table missing %s:\n%s", name, table)
			}
		}
	})

	t.Run("regression-fails", func(t *testing.T) {
		_, failures := compareBenchReports(base, mkReport("A", 1300, "B", 2000, "C", 500), 25)
		if len(failures) != 1 || !strings.Contains(failures[0], "A") {
			t.Fatalf("want exactly one failure for A (+30%%), got %v", failures)
		}
	})

	t.Run("boundary-is-allowed", func(t *testing.T) {
		// Exactly +25% is within the gate; it must not fail.
		_, failures := compareBenchReports(base, mkReport("A", 1250, "B", 2000, "C", 500), 25)
		if len(failures) != 0 {
			t.Fatalf("+25.0%% should pass a 25%% gate, got %v", failures)
		}
	})

	t.Run("missing-tracked-benchmark-fails", func(t *testing.T) {
		_, failures := compareBenchReports(base, mkReport("A", 1000, "C", 500), 25)
		if len(failures) != 1 || !strings.Contains(failures[0], "B") {
			t.Fatalf("want a failure for the vanished B, got %v", failures)
		}
	})

	t.Run("new-benchmark-is-informational", func(t *testing.T) {
		table, failures := compareBenchReports(base, mkReport("A", 1000, "B", 2000, "C", 500, "D", 42), 25)
		if len(failures) != 0 {
			t.Fatalf("a new benchmark must not fail the gate: %v", failures)
		}
		if !strings.Contains(table, "D") || !strings.Contains(table, "NEW") {
			t.Errorf("new benchmark D not surfaced in the table:\n%s", table)
		}
	})

	t.Run("improvements-pass", func(t *testing.T) {
		_, failures := compareBenchReports(base, mkReport("A", 100, "B", 200, "C", 50), 25)
		if len(failures) != 0 {
			t.Fatalf("improvements must pass: %v", failures)
		}
	})
}

func TestLoadBenchReportBaseline(t *testing.T) {
	// The committed baseline the CI gate compares against must stay
	// loadable and non-empty.
	rep, err := loadBenchReport("../../BENCH_3.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		t.Fatal("BENCH_3.json tracks no benchmarks")
	}
	for _, b := range rep.Benchmarks {
		if b.NsPerOp <= 0 {
			t.Errorf("%s: non-positive ns/op %d", b.Name, b.NsPerOp)
		}
	}
}

// withAllocs returns rep with allocs/op recorded as given, by name; rows
// not named keep no allocs/op, like a baseline written before the field.
func withAllocs(rep benchJSONReport, allocs map[string]int64) benchJSONReport {
	out := rep
	out.Benchmarks = append([]benchJSONResult(nil), rep.Benchmarks...)
	for i := range out.Benchmarks {
		if a, ok := allocs[out.Benchmarks[i].Name]; ok {
			out.Benchmarks[i].AllocsPerOp = &a
		}
	}
	return out
}

func TestCompareBenchAllocs(t *testing.T) {
	times := mkReport("A", 1000, "B", 2000, "C", 500)
	base := withAllocs(times, map[string]int64{"A": 1000, "B": 200, "C": 0})

	t.Run("both-carry-the-field", func(t *testing.T) {
		// A grows 20% (fails a 10% gate), B grows exactly 10% (passes),
		// C grows from zero (fails).
		cur := withAllocs(times, map[string]int64{"A": 1200, "B": 220, "C": 3})
		table, failures := compareBenchAllocs(base, cur, 10)
		if len(failures) != 2 || !strings.Contains(failures[0], "A") || !strings.Contains(failures[1], "C") {
			t.Fatalf("want failures for A and C, got %v", failures)
		}
		for _, name := range []string{"A", "B", "C"} {
			if !strings.Contains(table, name) {
				t.Errorf("allocs table missing %s:\n%s", name, table)
			}
		}
		if _, failures := compareBenchAllocs(base, withAllocs(times, map[string]int64{"A": 10, "B": 200, "C": 0}), 10); len(failures) != 0 {
			t.Fatalf("fewer or equal allocs must pass: %v", failures)
		}
	})

	t.Run("one-carries-the-field", func(t *testing.T) {
		// Only the current report records allocs/op, as when a new run is
		// gated against an older baseline; and the reverse.
		cur := withAllocs(times, map[string]int64{"A": 99999, "B": 99999, "C": 99999})
		for _, pair := range [][2]benchJSONReport{{times, cur}, {base, times}} {
			table, failures := compareBenchAllocs(pair[0], pair[1], 10)
			if table != "" || len(failures) != 0 {
				t.Fatalf("the gate must stay dormant, got failures %v and table:\n%s", failures, table)
			}
		}
		// A mixed baseline gates only the rows it records.
		mixed := withAllocs(times, map[string]int64{"A": 100})
		if _, failures := compareBenchAllocs(mixed, cur, 10); len(failures) != 1 || !strings.Contains(failures[0], "A") {
			t.Fatalf("want one failure for A, got %v", failures)
		}
	})

	t.Run("neither-carries-the-field", func(t *testing.T) {
		table, failures := compareBenchAllocs(times, mkReport("A", 5000, "B", 2000, "C", 500), 10)
		if table != "" || len(failures) != 0 {
			t.Fatalf("the gate must stay dormant, got failures %v and table:\n%s", failures, table)
		}
	})
}
