package pack

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/sched"
	"repro/internal/soc"
)

// splitSOC is four flat scan cores on an 8-wire TAM. Core 1 (seven
// chains) packs best at width 7 and must wait for core 2, a short
// one-wire test; core 3 (six chains) packs at width 6; core 4 is a long
// one-wire test.
func splitSOC(t *testing.T) *sched.Optimizer {
	t.Helper()
	core := func(id, chains, length, patterns int) *soc.Core {
		c := &soc.Core{ID: id, Name: fmt.Sprintf("c%d", id), Test: soc.Test{Patterns: patterns, Kind: soc.ScanTest, BISTEngine: -1}}
		for i := 0; i < chains; i++ {
			c.ScanChains = append(c.ScanChains, length)
		}
		return c
	}
	s := &soc.SOC{
		Name:        "split4",
		Cores:       []*soc.Core{core(1, 7, 100, 10), core(2, 1, 10, 5), core(3, 6, 100, 10), core(4, 1, 1000, 10)},
		Precedences: []soc.Precedence{{Before: 2, After: 1}},
	}
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

func splitPacker(t *testing.T) *Packer {
	t.Helper()
	p, err := New(context.Background(), "test", splitSOC(t), sched.Params{TAMWidth: 8, MaxPreemptions: map[int]int{3: 1, 4: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// emitVerified emits res and checks the schedule against every
// invariant and the timing model.
func emitVerified(t *testing.T, p *Packer, res *Result) {
	t.Helper()
	sch, err := p.Emit(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckInvariants(p.opt.SOC(), sch); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if err := p.opt.Verify(sch); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestDecodeVictimResumesSeamlessly: when core 2 finishes, core 1 is
// blocked by its width-7 floor with one wire free. Victims are taken
// weakest first, so core 4 (one wire) and then core 3 (six wires) are
// suspended. Core 1 starts on seven of the eight freed wires, and core 4,
// later in the same fill pass, takes the spare wire back at the instant
// of its suspension: a seamless resume, with no gap and no penalty. Core
// 3 waits and pays for its gap.
func TestDecodeVictimResumesSeamlessly(t *testing.T) {
	p := splitPacker(t)
	g := &Genome{Perm: []int{0, 1, 2, 3}, Cap: p.Uniform(8), Floor: []int{7, 0, 0, 0}, Preempt: true}
	res, err := p.Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	a, pre, big, long := res.runs[0], res.runs[1], res.runs[2], res.runs[3]
	if a.width != 7 || a.segs[0].start != pre.segs[0].end {
		t.Fatalf("core 1 started at width %d, t=%d; want width 7 when core 2 ends at t=%d", a.width, a.segs[0].start, pre.segs[0].end)
	}
	if len(big.segs) != 2 || big.segs[0].end != a.segs[0].start || big.segs[1].start <= big.segs[0].end || big.preempts != 1 {
		t.Fatalf("core 3 segments %v, %d preemptions; want a gap opened at t=%d", big.segs, big.preempts, a.segs[0].start)
	}
	want := []span{{0, p.Cores[3].Set.Time(1)}}
	if fmt.Sprint(long.segs) != fmt.Sprint(want) || long.preempts != 0 || long.penalty != 0 {
		t.Fatalf("core 4 segments %v, %d preemptions, penalty %d; want %v with no preemption", long.segs, long.preempts, long.penalty, want)
	}
	if res.Splits != 1 {
		t.Errorf("splits = %d, want 1 priority preemption", res.Splits)
	}
	emitVerified(t, p, res)
}

// TestDecodeForcedSplitWaitsForNextEvent: core 4's split gene suspends
// it at t=100 while its wire is free again at once; a forced split may
// not resume at its split instant, so core 4 resumes at the next event
// and pays the preemption penalty for the gap.
func TestDecodeForcedSplitWaitsForNextEvent(t *testing.T) {
	p := splitPacker(t)
	g := &Genome{Perm: []int{0, 1, 2, 3}, Cap: p.Uniform(8), Floor: make([]int, 4), Split: []int64{0, 0, 0, 100}}
	res, err := p.Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	long := res.runs[3]
	if len(long.segs) != 2 || long.segs[0] != (span{0, 100}) || long.segs[1].start <= 100 {
		t.Fatalf("core 4 segments %v; want [0,100) then a resume after t=100", long.segs)
	}
	pen := p.opt.Design(4, 1).PreemptionPenalty()
	if long.preempts != 1 || long.penalty != pen || pen <= 0 {
		t.Fatalf("core 4: %d preemptions, penalty %d; want 1 and %d", long.preempts, long.penalty, pen)
	}
	if res.Splits != 1 {
		t.Errorf("splits = %d, want 1 forced split", res.Splits)
	}
	emitVerified(t, p, res)
}

func benchPacker(t *testing.T, name string, params sched.Params) *Packer {
	t.Helper()
	s, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(context.Background(), "test", opt, params)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBestPicksEarliestShortest: Best emits the shortest decoded genome,
// ties going to the earliest one, and its schedule verifies.
func TestBestPicksEarliestShortest(t *testing.T) {
	for _, name := range []string{"demo8", "d695"} {
		for _, w := range []int{16, 32} {
			p := benchPacker(t, name, sched.Params{TAMWidth: w})
			genomes := p.Portfolio(p.TAMWidth)
			if len(genomes) != 26 {
				t.Fatalf("portfolio has %d genomes, want 26", len(genomes))
			}
			first := -1
			var min int64
			for i, g := range genomes {
				res, err := p.Decode(g)
				if err != nil {
					t.Fatalf("%s W=%d genome %d: %v", name, w, i, err)
				}
				if first < 0 || res.Makespan < min {
					first, min = i, res.Makespan
				}
			}
			sch, res, err := p.Best(context.Background(), genomes, "failed")
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan != min || sch.Makespan != min {
				t.Fatalf("%s W=%d: Best makespan %d, shortest genome %d", name, w, sch.Makespan, min)
			}
			want, _, err := p.Best(context.Background(), genomes[first:first+1], "failed")
			if err != nil {
				t.Fatal(err)
			}
			if !sameLayout(sch, want) {
				t.Errorf("%s W=%d: Best did not emit genome %d, the earliest shortest", name, w, first)
			}
			if err := p.opt.Verify(sch); err != nil {
				t.Errorf("%s W=%d: %v", name, w, err)
			}
		}
	}
}

// sameLayout compares two schedules' per-core widths and pieces.
func sameLayout(a, b *sched.Schedule) bool {
	if len(a.Assignments) != len(b.Assignments) {
		return false
	}
	for id, x := range a.Assignments {
		y := b.Assignments[id]
		if y == nil || x.Width != y.Width || fmt.Sprint(x.Pieces) != fmt.Sprint(y.Pieces) {
			return false
		}
	}
	return true
}

// TestBestFailures: when no genome decodes, Best names the failure and
// wraps the first decode error; a done context stops it with ctx's error.
func TestBestFailures(t *testing.T) {
	p := benchPacker(t, "demo8", sched.Params{TAMWidth: 16})
	// A floor above every core's widest Pareto width never starts anything.
	stuck := &Genome{Perm: p.Order(ByTime), Cap: p.Uniform(16), Floor: p.Uniform(p.WMax + 1)}
	_, _, err := p.Best(context.Background(), []*Genome{stuck, stuck}, "every genome failed")
	want := fmt.Sprintf("test: every genome failed: test: no core can run at t=0 with %d cores left", len(p.Cores))
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := p.Best(ctx, p.Portfolio(16), "failed"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Best returned %v, want context.Canceled", err)
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	opt := splitSOC(t)
	for _, tc := range []struct {
		params sched.Params
		want   string
	}{
		{sched.Params{TAMWidth: 0}, "x: non-positive TAM width 0"},
		{sched.Params{TAMWidth: 8, MaxWidth: sched.DefaultMaxWidth + 1}, "x: params.MaxWidth 65 exceeds optimizer cap 64"},
	} {
		if _, err := New(context.Background(), "x", opt, tc.params); err == nil || err.Error() != tc.want {
			t.Errorf("params %+v: error %v, want %q", tc.params, err, tc.want)
		}
	}
}

// TestCloneIsDeep: a clone owns its slices and always carries a Split
// vector, so search moves on it never touch the original.
func TestCloneIsDeep(t *testing.T) {
	g := &Genome{Perm: []int{1, 0}, Cap: []int{4, 4}, Floor: []int{0, 2}, Preempt: true}
	c := g.Clone()
	if len(c.Split) != 2 || c.Split[0] != 0 || !c.Preempt {
		t.Fatalf("clone %+v: want a zero Split of length 2 and Preempt kept", c)
	}
	c.Perm[0], c.Cap[0], c.Floor[0], c.Split[0] = 9, 9, 9, 9
	if g.Perm[0] != 1 || g.Cap[0] != 4 || g.Floor[0] != 0 || g.Split != nil {
		t.Fatalf("mutating the clone changed the original: %+v", g)
	}
}
