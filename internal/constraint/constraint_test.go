package constraint

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/soc"
)

func testSOC() *soc.SOC {
	return &soc.SOC{
		Name: "t",
		Cores: []*soc.Core{
			{ID: 1, Name: "a", Inputs: 2, Outputs: 2, Test: soc.Test{Patterns: 5, Power: 100, BISTEngine: -1}},
			{ID: 2, Name: "b", Parent: 1, Inputs: 2, Outputs: 2, Test: soc.Test{Patterns: 5, Power: 50, BISTEngine: -1}},
			{ID: 3, Name: "c", Inputs: 2, Outputs: 2, Test: soc.Test{Patterns: 5, Power: 70, Kind: soc.BISTTest, BISTEngine: 0}},
			{ID: 4, Name: "d", Inputs: 2, Outputs: 2, Test: soc.Test{Patterns: 5, Power: 60, Kind: soc.BISTTest, BISTEngine: 0}},
			{ID: 5, Name: "e", Inputs: 2, Outputs: 2, Test: soc.Test{Patterns: 5, Power: 30, BISTEngine: -1}},
		},
		Precedences:   []soc.Precedence{{Before: 3, After: 5}},
		Concurrencies: []soc.Concurrency{{A: 1, B: 5}},
	}
}

// sets returns a Set over testSOC's five cores holding ids.
func sets(ids ...int) Set {
	s := NewSet(5)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func TestPrecedenceConflict(t *testing.T) {
	chk, err := New(testSOC(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if msg := chk.Conflict(5, sets(), sets()); !strings.Contains(msg, "precedence") {
		t.Fatalf("core 5 should wait for 3: %q", msg)
	}
	if msg := chk.Conflict(5, sets(3), sets()); msg != "" {
		t.Fatalf("core 5 should start after 3 completes: %q", msg)
	}
}

func TestConcurrencyConflict(t *testing.T) {
	chk, _ := New(testSOC(), Config{})
	if msg := chk.Conflict(1, sets(), sets(5)); !strings.Contains(msg, "concurrency") {
		t.Fatalf("explicit concurrency not enforced: %q", msg)
	}
	// Hierarchy: 2 inside 1, implicit exclusion both directions.
	if msg := chk.Conflict(2, sets(), sets(1)); !strings.Contains(msg, "concurrency") {
		t.Fatalf("hierarchy exclusion not enforced: %q", msg)
	}
	if msg := chk.Conflict(1, sets(), sets(2)); !strings.Contains(msg, "concurrency") {
		t.Fatalf("hierarchy exclusion not symmetric: %q", msg)
	}
	// IgnoreHierarchy drops only the implicit ones.
	chk2, _ := New(testSOC(), Config{IgnoreHierarchy: true})
	if msg := chk2.Conflict(2, sets(), sets(1)); msg != "" {
		t.Fatalf("IgnoreHierarchy kept implicit constraint: %q", msg)
	}
	if msg := chk2.Conflict(1, sets(), sets(5)); msg == "" {
		t.Fatal("IgnoreHierarchy dropped explicit constraint")
	}
}

func TestPowerConflict(t *testing.T) {
	chk, err := New(testSOC(), Config{PowerMax: 150})
	if err != nil {
		t.Fatal(err)
	}
	// 100 + 50 = 150 fits exactly... but 1 and 2 are hierarchy-excluded;
	// use 1 (100) with 4 (60): 160 > 150.
	if msg := chk.Conflict(4, sets(), sets(1)); !strings.Contains(msg, "power") {
		t.Fatalf("power excess not caught: %q", msg)
	}
	// 1 (100) alone is fine; adding 5 (30) stays at 130 but 1~5 conflicts
	// first; use 2 (50) with 4 (60) = 110, fine.
	if msg := chk.Conflict(4, sets(), sets(2)); msg != "" {
		t.Fatalf("feasible power rejected: %q", msg)
	}
	// Power disabled when budget is zero.
	chk2, _ := New(testSOC(), Config{})
	if msg := chk2.Conflict(4, sets(), sets(1)); msg != "" {
		t.Fatalf("unbudgeted power check fired: %q", msg)
	}
}

func TestPowerInfeasible(t *testing.T) {
	s := testSOC()
	_, err := New(s, Config{PowerMax: 99}) // core 1 needs 100
	if err == nil || !strings.Contains(err.Error(), "no schedule exists") {
		t.Fatalf("infeasible budget accepted: %v", err)
	}
}

func TestBISTConflict(t *testing.T) {
	chk, _ := New(testSOC(), Config{})
	if msg := chk.Conflict(4, sets(), sets(3)); !strings.Contains(msg, "bist") {
		t.Fatalf("shared BIST engine not caught: %q", msg)
	}
	if msg := chk.Conflict(4, sets(3), sets()); msg != "" {
		t.Fatalf("sequential BIST rejected: %q", msg)
	}
}

func TestPrecedenceCycle(t *testing.T) {
	s := testSOC()
	s.Precedences = append(s.Precedences, soc.Precedence{Before: 5, After: 3})
	if _, err := New(s, Config{}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("precedence cycle accepted: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	chk, _ := New(testSOC(), Config{PowerMax: 400})
	if chk.PowerMax() != 400 {
		t.Fatalf("PowerMax = %d", chk.PowerMax())
	}
	if chk.Power(1) != 100 {
		t.Fatalf("Power(1) = %d", chk.Power(1))
	}
	if pre := chk.Predecessors(5); len(pre) != 1 || pre[0] != 3 {
		t.Fatalf("Predecessors(5) = %v", pre)
	}
	if !chk.OK(1, sets(), sets()) {
		t.Fatal("OK(1) false with empty state")
	}
}

func TestPowerFallbackToSOC(t *testing.T) {
	s := testSOC()
	s.PowerMax = 120
	chk, err := New(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if chk.PowerMax() != 120 {
		t.Fatalf("SOC PowerMax not picked up: %d", chk.PowerMax())
	}
	// Config overrides.
	chk2, _ := New(s, Config{PowerMax: 300})
	if chk2.PowerMax() != 300 {
		t.Fatalf("override PowerMax = %d", chk2.PowerMax())
	}
}

func TestValidateTimeline(t *testing.T) {
	chk, _ := New(testSOC(), Config{PowerMax: 150})
	ok := map[int][]Interval{
		3: {{0, 10}},
		4: {{10, 20}},
		5: {{10, 20}},
		2: {{0, 10}},
		1: {{20, 30}},
	}
	if err := chk.ValidateTimeline(ok); err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}

	bad := map[int][]Interval{3: {{5, 10}}, 5: {{0, 8}}}
	if err := chk.ValidateTimeline(bad); err == nil || !strings.Contains(err.Error(), "predecessor") {
		t.Fatalf("precedence violation missed: %v", err)
	}

	bad = map[int][]Interval{3: {{0, 10}}, 4: {{5, 15}}}
	if err := chk.ValidateTimeline(bad); err == nil || !strings.Contains(err.Error(), "BIST") {
		t.Fatalf("BIST overlap missed: %v", err)
	}

	// Core 5's predecessor 3 runs first so only the 1~5 overlap remains.
	bad = map[int][]Interval{3: {{0, 2}}, 1: {{2, 12}}, 5: {{7, 17}}}
	if err := chk.ValidateTimeline(bad); err == nil || !strings.Contains(err.Error(), "concurrency") {
		t.Fatalf("concurrency overlap missed: %v", err)
	}

	bad = map[int][]Interval{1: {{0, 10}}, 4: {{0, 10}}} // 100+60 > 150
	if err := chk.ValidateTimeline(bad); err == nil || !strings.Contains(err.Error(), "power") {
		t.Fatalf("power violation missed: %v", err)
	}

	// Power exactly at the budget at a boundary instant is fine: a test
	// ending at t releases its power before one starting at t claims it.
	edge := map[int][]Interval{1: {{0, 10}}, 2: {{10, 20}}, 4: {{10, 20}}}
	if err := chk.ValidateTimeline(edge); err != nil {
		t.Fatalf("boundary handoff rejected: %v", err)
	}
}

func TestValidateTimelinePrecedenceNeedsPredecessorRun(t *testing.T) {
	chk, _ := New(testSOC(), Config{})
	bad := map[int][]Interval{5: {{0, 10}}}
	if err := chk.ValidateTimeline(bad); err == nil || !strings.Contains(err.Error(), "never runs") {
		t.Fatalf("missing predecessor run not caught: %v", err)
	}
}

// refChecker is the map-based Conflict the dense Checker replaced, kept
// as an oracle. The only change is that it ranges the running cores in
// ascending ID order, so the core it names is deterministic.
type refChecker struct {
	preds    map[int][]int
	conc     map[int]map[int]bool
	engine   map[int]int
	power    map[int]int
	powerMax int
}

func newRef(s *soc.SOC, cfg Config) *refChecker {
	c := &refChecker{
		preds:    make(map[int][]int),
		conc:     make(map[int]map[int]bool),
		engine:   make(map[int]int),
		power:    make(map[int]int),
		powerMax: s.PowerMax,
	}
	if cfg.PowerMax > 0 {
		c.powerMax = cfg.PowerMax
	}
	for _, core := range s.Cores {
		c.engine[core.ID] = core.Test.BISTEngine
		c.power[core.ID] = core.TestPower()
	}
	for _, p := range s.Precedences {
		c.preds[p.After] = append(c.preds[p.After], p.Before)
	}
	addConc := func(a, b int) {
		if c.conc[a] == nil {
			c.conc[a] = make(map[int]bool)
		}
		if c.conc[b] == nil {
			c.conc[b] = make(map[int]bool)
		}
		c.conc[a][b] = true
		c.conc[b][a] = true
	}
	for _, cc := range s.Concurrencies {
		addConc(cc.A, cc.B)
	}
	if !cfg.IgnoreHierarchy {
		for _, cc := range s.HierarchyConcurrencies() {
			addConc(cc.A, cc.B)
		}
	}
	return c
}

func (c *refChecker) Conflict(id int, complete, running map[int]bool) string {
	for _, pre := range c.preds[id] {
		if !complete[pre] {
			return fmt.Sprintf("precedence: core %d must complete before core %d", pre, id)
		}
	}
	ids := make([]int, 0, len(running))
	for other := range running {
		ids = append(ids, other)
	}
	sort.Ints(ids)
	for _, other := range ids {
		if c.conc[id][other] {
			return fmt.Sprintf("concurrency: core %d may not run with core %d", id, other)
		}
	}
	if c.powerMax > 0 {
		sum := c.power[id]
		for _, other := range ids {
			sum += c.power[other]
		}
		if sum > c.powerMax {
			return fmt.Sprintf("power: %d exceeds budget %d", sum, c.powerMax)
		}
	}
	if e := c.engine[id]; e >= 0 {
		for _, other := range ids {
			if c.engine[other] == e {
				return fmt.Sprintf("bist: cores %d and %d share BIST engine %d", id, other, e)
			}
		}
	}
	return ""
}

// CheckAgainstReference draws pairs seeded (complete, running) states
// over s's cores and asks both checkers about every core in each: the
// messages must match and OK must agree with Conflict == "". It returns
// how often each verdict kind ("" or the message's first word) came up.
// It is exported for the corpus oracle in package constraint_test.
func CheckAgainstReference(t *testing.T, s *soc.SOC, cfg Config, seed int64, pairs int) map[string]int {
	t.Helper()
	chk, err := New(s, cfg)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	ref := newRef(s, cfg)
	n := len(s.Cores)
	rng := rand.New(rand.NewSource(seed))
	complete, running := NewSet(n), NewSet(n)
	kinds := map[string]int{}
	for i := 0; i < pairs; i++ {
		// Vary the density so sparse states (few conflicts) and dense ones
		// (power and BIST conflicts) both show up.
		pRun, pDone := rng.Float64()*0.5, rng.Float64()
		complete.Clear()
		running.Clear()
		mc, mr := map[int]bool{}, map[int]bool{}
		for _, core := range s.Cores {
			switch x := rng.Float64(); {
			case x < pRun:
				running.Add(core.ID)
				mr[core.ID] = true
			case x < pRun+(1-pRun)*pDone:
				complete.Add(core.ID)
				mc[core.ID] = true
			}
		}
		for _, core := range s.Cores {
			want := ref.Conflict(core.ID, mc, mr)
			got := chk.Conflict(core.ID, complete, running)
			if got != want {
				t.Fatalf("%s %+v pair %d core %d: Conflict = %q, reference %q", s.Name, cfg, i, core.ID, got, want)
			}
			if ok := chk.OK(core.ID, complete, running); ok != (want == "") {
				t.Fatalf("%s %+v pair %d core %d: OK = %t, reference %q", s.Name, cfg, i, core.ID, ok, want)
			}
			kind, _, _ := strings.Cut(want, ":")
			kinds[kind]++
		}
	}
	return kinds
}

// TestDenseMatchesReferenceSynth runs the oracle on generated SOCs with
// shared BIST engines, hierarchy, extra constraints and a power budget,
// including core counts that span several words of a Set.
func TestDenseMatchesReferenceSynth(t *testing.T) {
	kinds := map[string]int{}
	for i, cfg := range []bench.SynthConfig{
		{Cores: 12, Seed: 1, BISTEngines: 1, HierarchyPct: 30, PowerValues: true, PowerBudgetPct: 150, ExtraPrecedences: 4, ExtraConcurrencies: 4},
		{Cores: 40, Seed: 2, HierarchyPct: 20, PowerBudgetPct: 250, ExtraPrecedences: 8, ExtraConcurrencies: 6},
		{Cores: 70, Seed: 3, BISTEngines: 3, HierarchyPct: 25, PowerValues: true, PowerBudgetPct: 300, ExtraPrecedences: 10, ExtraConcurrencies: 10},
		{Cores: 130, Seed: 4, Profile: "longchain", BISTEngines: 2, HierarchyPct: 10, PowerBudgetPct: 400, ExtraPrecedences: 12, ExtraConcurrencies: 12},
	} {
		s := bench.Synth(cfg)
		for _, ignore := range []bool{false, true} {
			for kind, k := range CheckAgainstReference(t, s, Config{IgnoreHierarchy: ignore}, int64(i), 1000) {
				kinds[kind] += k
			}
		}
	}
	for _, kind := range []string{"", "precedence", "concurrency", "power", "bist"} {
		if kinds[kind] == 0 {
			t.Errorf("oracle never saw a %q verdict: %v", kind, kinds)
		}
	}
}

// TestValidateTimelineDeterministic: with two precedence violations the
// error must always name the lowest (After, Before) pair, however the
// intervals map iterates.
func TestValidateTimelineDeterministic(t *testing.T) {
	s := testSOC()
	s.Cores = append(s.Cores, &soc.Core{ID: 6, Name: "f", Inputs: 2, Outputs: 2, Test: soc.Test{Patterns: 5, Power: 10, BISTEngine: -1}})
	s.Precedences = []soc.Precedence{{Before: 2, After: 6}, {Before: 1, After: 5}}
	s.Concurrencies = nil
	chk, err := New(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const want = "constraint: core 5 starts at 0 before predecessor 1 ends at 10"
	for i := 0; i < 100; i++ {
		ivs := map[int][]Interval{1: {{0, 10}}, 2: {{0, 10}}, 5: {{0, 4}}, 6: {{0, 4}}}
		if err := chk.ValidateTimeline(ivs); err == nil || err.Error() != want {
			t.Fatalf("call %d: %v, want %q", i, err, want)
		}
	}
	if err := chk.ValidateTimeline(map[int][]Interval{1: {{0, 10}}, 7: {{0, 1}}}); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("intervals for an unknown core accepted: %v", err)
	}
}

// TestNewRejectsOutOfRangeIDs: New indexes its tables by core ID, so an
// unvalidated SOC naming a core outside 1..len(Cores) must be an error,
// not a panic.
func TestNewRejectsOutOfRangeIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(s *soc.SOC)
		want string
	}{
		{"core ID zero", func(s *soc.SOC) { s.Cores[0].ID = 0 }, "core at index 0 has ID 0 outside 1..5"},
		{"core ID too big", func(s *soc.SOC) { s.Cores[4].ID = 9 }, "core at index 4 has ID 9 outside 1..5"},
		{"precedence before", func(s *soc.SOC) { s.Precedences[0].Before = 6 }, "precedence 6<5 names a core outside 1..5"},
		{"precedence after", func(s *soc.SOC) { s.Precedences[0].After = -1 }, "precedence 3<-1 names a core outside 1..5"},
		{"concurrency", func(s *soc.SOC) { s.Concurrencies[0].B = 64 }, "concurrency 1~64 names a core outside 1..5"},
		{"parent", func(s *soc.SOC) { s.Cores[1].Parent = 7 }, "core 2 has parent 7 outside 1..5"},
		{"hierarchy cycle", func(s *soc.SOC) { s.Cores[0].Parent = 2 }, "hierarchy cycle"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSOC()
			tc.edit(s)
			if _, err := New(s, Config{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestOKAllocs guards the hot path: OK neither formats nor allocates,
// whether it accepts or refuses.
func TestOKAllocs(t *testing.T) {
	chk, err := New(testSOC(), Config{PowerMax: 150})
	if err != nil {
		t.Fatal(err)
	}
	complete, running := sets(3), sets(1)
	allocs := testing.AllocsPerRun(100, func() {
		for id := 1; id <= 5; id++ {
			chk.OK(id, complete, running)
		}
	})
	if allocs != 0 {
		t.Fatalf("OK allocates %.1f times per round, want 0", allocs)
	}
}

func TestSetAcrossWords(t *testing.T) {
	s := NewSet(130)
	if len(s) != 3 || !s.Empty() {
		t.Fatalf("NewSet(130) = %v", s)
	}
	for _, id := range []int{1, 63, 64, 65, 127, 128, 130} {
		s.Add(id)
	}
	if got := s.ascending(); !slices.Equal(got, []int{1, 63, 64, 65, 127, 128, 130}) {
		t.Fatalf("ascending = %v", got)
	}
	s.Remove(64)
	if s.Has(64) || !s.Has(63) || !s.Has(65) {
		t.Fatal("Remove(64) touched its neighbors")
	}
	t2 := NewSet(130)
	t2.Add(128)
	t2.Add(65)
	if got := s.firstCommon(t2); got != 65 {
		t.Fatalf("firstCommon = %d, want 65", got)
	}
	s.Clear()
	if !s.Empty() || s.firstCommon(t2) != -1 {
		t.Fatal("Clear left IDs behind")
	}
}
