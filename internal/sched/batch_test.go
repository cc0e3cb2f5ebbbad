package sched

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bench"
)

// TestCanonicalKeyFoldsDefaults: Params that select the same schedule
// share a key, whatever the spelling; any schedule-relevant difference
// splits them.
func TestCanonicalKeyFoldsDefaults(t *testing.T) {
	base := Params{TAMWidth: 16, MaxPreemptions: map[int]int{1: 1, 2: 2}}
	same := []Params{
		{TAMWidth: 16, MaxPreemptions: map[int]int{2: 2, 1: 1}, Workers: 4},
		{TAMWidth: 16, MaxPreemptions: map[int]int{1: 1, 2: 2}, Backend: DefaultBackend, Seed: DefaultSeed, MaxWidth: DefaultMaxWidth},
	}
	for _, p := range same {
		if p.CanonicalKey() != base.CanonicalKey() {
			t.Errorf("%+v: key %q, want %q", p, p.CanonicalKey(), base.CanonicalKey())
		}
	}
	differ := []Params{
		{TAMWidth: 24, MaxPreemptions: map[int]int{1: 1, 2: 2}},
		{TAMWidth: 16, MaxPreemptions: map[int]int{1: 1}},
		{TAMWidth: 16},
		{TAMWidth: 16, MaxPreemptions: map[int]int{1: 1, 2: 2}, IgnoreHierarchy: true},
		{TAMWidth: 16, MaxPreemptions: map[int]int{1: 1, 2: 2}, Backend: "portfolio"},
	}
	for _, p := range differ {
		if p.CanonicalKey() == base.CanonicalKey() {
			t.Errorf("%+v shares the key %q", p, base.CanonicalKey())
		}
	}
}

// TestScheduleBatchSharesDuplicatesAndIsolatesErrors: equal keys compute
// once and share one schedule, a bad item fails alone, the Best bit
// selects the swept best, and a done context fails every item.
func TestScheduleBatchSharesDuplicatesAndIsolatesErrors(t *testing.T) {
	opt, err := New(bench.D695(), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Params: Params{TAMWidth: 16, Percent: 10, Delta: 2}},
		{Params: Params{TAMWidth: 16, Percent: 10, Delta: 2, Workers: 3, Backend: DefaultBackend}},
		{Params: Params{TAMWidth: 0}},
		{Params: Params{TAMWidth: 16}, Best: true},
	}
	res := opt.ScheduleBatch(context.Background(), items, 2)
	if len(res) != len(items) {
		t.Fatalf("%d results for %d items", len(res), len(items))
	}
	if res[0].Err != nil || res[0].Schedule == nil || res[1].Schedule != res[0].Schedule {
		t.Fatalf("duplicate items did not share one schedule: %+v / %+v", res[0], res[1])
	}
	if res[2].Err == nil || res[2].Schedule != nil {
		t.Fatalf("TAMWidth 0 item: %+v, want an error", res[2])
	}
	if res[3].Err != nil || res[3].Schedule.Makespan > res[0].Schedule.Makespan {
		t.Fatalf("best item %+v worse than the single run %d", res[3], res[0].Schedule.Makespan)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range opt.ScheduleBatch(ctx, items, 1) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("item %d under a cancelled context: %v", i, r.Err)
		}
	}
	if got := opt.ScheduleBatch(context.Background(), nil, 1); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}
