package repro_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/lb"
	"repro/internal/sched"
)

// TestOptimizerLowerBoundMatchesLB: the portfolio's early-stop floor,
// computed from the optimizer's cached Pareto sets, is exactly the
// paper's LB(W) on every corpus scenario.
func TestOptimizerLowerBoundMatchesLB(t *testing.T) {
	for _, sc := range corpus.All() {
		s := sc.Build()
		params, err := sc.ResolveParams(s)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := sched.New(s, sched.DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		p := params.Defaults()
		want, err := lb.Compute(s, p.TAMWidth, p.MaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		if got := opt.LowerBound(params); got != want.Value() {
			t.Errorf("%s: floor %d, LB(W=%d) %d", sc.Name, got, p.TAMWidth, want.Value())
		}
	}
}

// TestOptimizerLowerBoundOutOfRange: parameters the optimizer's cache
// cannot serve get no floor, so the portfolio races them to their real
// error instead of stopping early.
func TestOptimizerLowerBoundOutOfRange(t *testing.T) {
	sc, ok := corpus.ByName("demo8-w16")
	if !ok {
		t.Fatal("demo8-w16 missing from corpus")
	}
	opt, err := sched.New(sc.Build(), sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []sched.Params{
		{TAMWidth: 0},
		{TAMWidth: 16, MaxWidth: sched.DefaultMaxWidth + 1},
		{TAMWidth: 16, MaxWidth: -1},
	} {
		if got := opt.LowerBound(p); got != 0 {
			t.Errorf("params %+v: floor %d, want 0", p, got)
		}
	}
}
