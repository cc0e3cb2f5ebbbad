package sched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/soc"
	"repro/internal/wrapper"
)

// sweepBestRef is the exhaustive sweep oracle for SweepBest. It calls the
// full Run (plan and materialize) on every grid point, sequentially, keeps
// the smallest makespan with ties to the first grid point, and, when every
// point fails, returns the error of the lowest grid index. It shares only
// buildGrid with the code under test: no deduplication, no shared inputs,
// no plan-only scoring.
func (o *Optimizer) sweepBestRef(params Params, percents, deltas []int) (*Schedule, error) {
	var best *Schedule
	var firstErr error
	for _, p := range buildGrid(params, percents, deltas) {
		sch, err := o.Run(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || sch.Makespan < best.Makespan {
			best = sch
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// dedupSynthSOCs are the generated SOCs of the differential sweep test:
// both carry BIST engines, hierarchy and extra constraint edges.
func dedupSynthSOCs(t *testing.T) []*soc.SOC {
	t.Helper()
	var out []*soc.SOC
	for _, cfg := range []bench.SynthConfig{
		{Name: "synthA", Cores: 24, Seed: 3, BISTEngines: 2, HierarchyPct: 25, ExtraPrecedences: 3, ExtraConcurrencies: 2},
		{Name: "synthB", Cores: 40, Seed: 11, BISTEngines: 1, HierarchyPct: 15, PowerValues: true, ExtraPrecedences: 2},
	} {
		s := bench.Synth(cfg)
		bist, parents := 0, 0
		for _, c := range s.Cores {
			if c.Test.BISTEngine >= 0 {
				bist++
			}
			if c.Parent != 0 {
				parents++
			}
		}
		if bist == 0 || parents == 0 {
			t.Fatalf("%s: %d BIST cores, %d child cores; want both > 0", s.Name, bist, parents)
		}
		out = append(out, s)
	}
	return out
}

// TestSweepBestDedupMatchesFullGrid asserts that SweepBest (unique
// preferred-width fingerprints only, every point scored on its logical
// schedule, wires assigned to the winner alone) returns a schedule
// identical — field for field, wire for wire, params echo included — to
// the exhaustive Run oracle. It covers the benchmark and generated SOCs
// under preemption budgets, a power limit, IgnoreHierarchy and an explicit
// InsertSlack, sequentially and with a worker pool, plus grids where every
// point fails.
func TestSweepBestDedupMatchesFullGrid(t *testing.T) {
	socs := dedupSynthSOCs(t)
	for _, name := range []string{"d695", "demo8"} {
		s, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		socs = append(socs, s)
	}
	for _, s := range socs {
		opt, err := New(s, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		budgets, err := opt.LargerCorePreemptions(2)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name    string
			p       Params
			wantErr bool
		}{
			{name: "plain"},
			{name: "budgets", p: Params{MaxPreemptions: budgets}},
			{name: "power", p: Params{PowerMax: DefaultPowerBudget(s, 125)}},
			{name: "budgets+power", p: Params{MaxPreemptions: budgets, PowerMax: DefaultPowerBudget(s, 125)}},
			{name: "nohier", p: Params{IgnoreHierarchy: true}},
			{name: "slack5", p: Params{InsertSlack: 5}},
			{name: "infeasible-power", p: Params{PowerMax: 1}, wantErr: true},
			{name: "overcap", p: Params{MaxWidth: DefaultMaxWidth + 1}, wantErr: true},
		}
		for _, w := range []int{16, 32} {
			for _, c := range cases {
				c.p.TAMWidth = w
				want, wantErr := opt.sweepBestRef(c.p, detPercents, detDeltas)
				if (wantErr != nil) != c.wantErr {
					t.Fatalf("%s W=%d %s: oracle error %v, want error %v", s.Name, w, c.name, wantErr, c.wantErr)
				}
				for _, workers := range []int{1, 4} {
					p := c.p
					p.Workers = workers
					got, err := opt.SweepBest(p, detPercents, detDeltas)
					tag := fmt.Sprintf("%s W=%d %s workers=%d", s.Name, w, c.name, workers)
					if c.wantErr {
						if err == nil || err.Error() != wantErr.Error() {
							t.Errorf("%s: error %v, want %v", tag, err, wantErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: dedup sweep differs\n got  makespan=%d params=%+v\n want makespan=%d params=%+v",
							tag, got.Makespan, got.Params, want.Makespan, want.Params)
					}
				}
			}
		}
	}
}

// TestSweepBestDedupCollapsesGrid sanity-checks that the fingerprinting
// actually collapses the default grid (the perf win exists) while keeping
// representatives in grid order.
func TestSweepBestDedupCollapsesGrid(t *testing.T) {
	s := bench.D695()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	grid := buildGrid(Params{TAMWidth: 32}, nil, nil)
	in, err := opt.inputs(grid[0].Defaults())
	if err != nil {
		t.Fatal(err)
	}
	reps := opt.gridReps(grid, in)
	if len(reps) == 0 || len(reps) >= len(grid) {
		t.Fatalf("dedup collapsed %d grid points to %d; expected a strict, non-empty reduction", len(grid), len(reps))
	}
	for i := 1; i < len(reps); i++ {
		if reps[i] <= reps[i-1] {
			t.Fatalf("representatives out of grid order: %v", reps)
		}
	}
	if reps[0] != 0 {
		t.Fatalf("first grid point must be a representative, got %d", reps[0])
	}
	t.Logf("d695 W=32 default grid: %d points -> %d unique runs", len(grid), len(reps))
}

// TestSweepBestDedupEveryPointFails pins the error path: an unsatisfiable
// power budget makes every grid point deadlock, and the dedup sweep must
// surface the same (lowest-grid-index) error as the full grid, at any
// worker count.
func TestSweepBestDedupEveryPointFails(t *testing.T) {
	for _, name := range []string{"d695", "demo8"} {
		s, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := New(s, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			p := Params{TAMWidth: 32, PowerMax: 1, Workers: workers}
			_, gotErr := opt.SweepBest(p, detPercents, detDeltas)
			_, wantErr := opt.sweepBestRef(p, detPercents, detDeltas)
			if gotErr == nil || wantErr == nil {
				t.Fatalf("%s workers=%d: expected both paths to fail, got %v / %v", name, workers, gotErr, wantErr)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("%s workers=%d: errors differ:\n got  %v\n want %v", name, workers, gotErr, wantErr)
			}
		}
	}
}

// TestDesignCacheMatchesDesignWrapper asserts the (core, width) design
// cache holds exactly what DesignWrapper would produce, over the full
// width range, and that the cached-design Verify accepts real schedules.
func TestDesignCacheMatchesDesignWrapper(t *testing.T) {
	s := bench.D695()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Cores {
		for w := 1; w <= DefaultMaxWidth; w++ {
			want, err := wrapper.DesignWrapper(c, w)
			if err != nil {
				t.Fatal(err)
			}
			if got := opt.Design(c.ID, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("core %d width %d: cached design differs", c.ID, w)
			}
		}
	}
	if opt.Design(1, 0) != nil || opt.Design(1, DefaultMaxWidth+1) != nil || opt.Design(9999, 8) != nil {
		t.Fatal("out-of-range Design lookups must return nil")
	}
	sch, err := opt.SweepBest(Params{TAMWidth: 32, Workers: 1}, detPercents, detDeltas)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Verify(sch); err != nil {
		t.Fatalf("cached Verify: %v", err)
	}
	if err := Verify(s, sch); err != nil {
		t.Fatalf("uncached Verify: %v", err)
	}
}

// sweepBestAllocBound caps the allocations of one d695 W=32 default-grid
// sequential SweepBest. It measures 368 (inputs, fingerprints, the runner
// scratch and the winner's materialization), with and without -race; the
// bound leaves about 2× headroom. Scoring every grid point through the
// full Run cost 20,143.
const sweepBestAllocBound = 750

// TestSweepBestAllocs guards the plan-then-materialize sweep: grid points
// are scored on their logical schedules in reused runners, and only the
// winner gets a rect.Bin, so a sweep's allocations stay far below one full
// Run per grid point.
func TestSweepBestAllocs(t *testing.T) {
	opt, err := New(bench.D695(), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{TAMWidth: 32, Workers: 1}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := opt.SweepBest(p, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("SweepBest d695 W=32 default grid: %.0f allocs", allocs)
	if allocs > sweepBestAllocBound {
		t.Fatalf("SweepBest allocates %.0f times, want at most %d", allocs, sweepBestAllocBound)
	}
}
