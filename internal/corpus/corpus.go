// Package corpus defines the repository's frozen scenario corpus: a
// deterministic set of SOC scheduling scenarios spanning the space the DAC
// 2002 framework covers — flat and hierarchical designs, BIST engine
// conflicts, power budgets from tight to unconstrained, preemption
// budgets, precedence and concurrency constraint mixes, and sizes from
// 4-core toys to 60-core monsters — together with a replay engine that
// captures canonical output bytes at every layer of the stack (schedule
// JSON, width sweeps, data-volume curves, effective widths, lower bounds,
// socserved HTTP responses, and the rectpack-family and anneal packers'
// schedules).
//
// The replayed bytes are committed as golden files under testdata/golden/
// and gated by cmd/socregress and the corpus_regress_test.go wrapper:
// any optimization PR that drifts an output byte anywhere in the stack
// fails the gate until the change is understood and re-blessed with
// `socregress -update`.
package corpus

import (
	"repro/internal/bench"
	"repro/internal/sched"
	"repro/internal/soc"
)

// Scenario is one frozen corpus entry. Everything in it is deterministic:
// Build must return the same SOC every call, and the replay engine forces
// sequential workers so the frozen bytes never depend on the host.
type Scenario struct {
	// Name is the scenario's unique slug; it names the golden directory.
	Name string
	// Notes says what regime the scenario pins down.
	Notes string
	// Build constructs the SOC (a fresh copy per call).
	Build func() *soc.SOC
	// Params are the scheduling parameters for the schedule layer;
	// TAMWidth is required. Workers is forced to 1 during replay.
	Params sched.Params
	// SingleRun freezes a single sched.Run at Params instead of the
	// grid-swept best (and replays /v1/schedule instead of /v1/schedule/best).
	SingleRun bool
	// WidthLo, WidthHi bound the width sweep for the sweep, data-volume,
	// effective-width, and service-effective layers.
	WidthLo, WidthHi int
	// PowerPct, when > 0, sets Params.PowerMax to that percent of the
	// largest single-test power (sched.DefaultPowerBudget).
	PowerPct int
	// PreemptLarger, when > 0, grants the larger cores that many
	// preemptions (sched.LargerCorePreemptions).
	PreemptLarger int
}

// Gammas are the trade-off weights frozen by the effective-width layer.
var Gammas = []float64{0, 0.25, 0.5, 0.75, 1}

// LBWidths are the TAM widths frozen by the lower-bound layer.
var LBWidths = []int{8, 16, 24, 32, 48, 64}

func builtin(name string) func() *soc.SOC {
	return func() *soc.SOC {
		s, err := bench.ByName(name)
		if err != nil {
			panic(err) // corpus invariant: built-in names are valid
		}
		return s
	}
}

func synth(cfg bench.SynthConfig) func() *soc.SOC {
	return func() *soc.SOC { return bench.Synth(cfg) }
}

// All returns the corpus in frozen order. Scenario names and semantics are
// append-only: renaming or re-seeding an existing scenario invalidates its
// golden directory and history, so add new scenarios instead.
func All() []Scenario {
	return []Scenario{
		// ---- built-in benchmarks under varied constraint regimes ----
		{
			Name:    "d695-w32",
			Notes:   "flagship paper SOC, unconstrained, grid-swept best at W=32",
			Build:   builtin("d695"),
			Params:  sched.Params{TAMWidth: 32},
			WidthLo: 16, WidthHi: 40,
		},
		{
			Name:     "d695-w16-power-tight",
			Notes:    "d695 under a 110% power budget (near-serial packing pressure)",
			Build:    builtin("d695"),
			Params:   sched.Params{TAMWidth: 16},
			PowerPct: 110,
			WidthLo:  8, WidthHi: 24,
		},
		{
			Name:          "d695-w24-preempt2",
			Notes:         "d695 with 2 preemptions for the larger cores",
			Build:         builtin("d695"),
			Params:        sched.Params{TAMWidth: 24},
			PreemptLarger: 2,
			WidthLo:       16, WidthHi: 32,
		},
		{
			Name:    "d695-w64",
			Notes:   "d695 at the widest paper TAM, sweep past the per-core cap",
			Build:   builtin("d695"),
			Params:  sched.Params{TAMWidth: 64},
			WidthLo: 48, WidthHi: 72,
		},
		{
			Name:      "d695-w32-lean-heuristics",
			Notes:     "single run, idle-insertion and widening disabled (ablation regime)",
			Build:     builtin("d695"),
			Params:    sched.Params{TAMWidth: 32, Percent: 5, Delta: 1, InsertSlack: -1, DisableWidening: true},
			SingleRun: true,
			WidthLo:   24, WidthHi: 36,
		},
		{
			Name:    "demo8-w16",
			Notes:   "hierarchy + precedence + concurrency + shared BIST engine in one toy",
			Build:   builtin("demo8"),
			Params:  sched.Params{TAMWidth: 16},
			WidthLo: 8, WidthHi: 24,
		},
		{
			Name:    "demo8-w16-ignorehier",
			Notes:   "same toy with implicit parent/child concurrency suppressed",
			Build:   builtin("demo8"),
			Params:  sched.Params{TAMWidth: 16, IgnoreHierarchy: true},
			WidthLo: 8, WidthHi: 24,
		},
		{
			Name:     "demo8-w8-power105",
			Notes:    "tightest schedulable power budget on the toy at a narrow TAM",
			Build:    builtin("demo8"),
			Params:   sched.Params{TAMWidth: 8},
			PowerPct: 105,
			WidthLo:  6, WidthHi: 16,
		},
		{
			Name:          "demo8-w12-preempt1",
			Notes:         "one preemption for the larger toy cores",
			Build:         builtin("demo8"),
			Params:        sched.Params{TAMWidth: 12},
			PreemptLarger: 1,
			WidthLo:       8, WidthHi: 20,
		},
		{
			Name:    "p22810-w32",
			Notes:   "28-core industrial stand-in, unconstrained",
			Build:   builtin("p22810like"),
			Params:  sched.Params{TAMWidth: 32},
			WidthLo: 24, WidthHi: 40,
		},
		{
			Name:     "p22810-w16-power110",
			Notes:    "industrial stand-in under the Table-1 style power budget",
			Build:    builtin("p22810like"),
			Params:   sched.Params{TAMWidth: 16},
			PowerPct: 110,
			WidthLo:  12, WidthHi: 20,
		},
		{
			Name:    "p34392-w24",
			Notes:   "bottleneck-core SOC: the δ rescue decides the best schedule",
			Build:   builtin("p34392like"),
			Params:  sched.Params{TAMWidth: 24},
			WidthLo: 16, WidthHi: 32,
		},
		{
			Name:      "p34392-w16-alpha7-delta0",
			Notes:     "single run that misses the δ bottleneck rescue (paper §6 narrative)",
			Build:     builtin("p34392like"),
			Params:    sched.Params{TAMWidth: 16, Percent: 7, Delta: 0},
			SingleRun: true,
			WidthLo:   12, WidthHi: 20,
		},
		{
			Name:    "p93791-w48",
			Notes:   "largest industrial stand-in with the Fig. 1 staircase core",
			Build:   builtin("p93791like"),
			Params:  sched.Params{TAMWidth: 48},
			WidthLo: 40, WidthHi: 56,
		},
		{
			Name:          "p93791-w32-preempt1",
			Notes:         "largest stand-in, one preemption for the larger cores",
			Build:         builtin("p93791like"),
			Params:        sched.Params{TAMWidth: 32},
			PreemptLarger: 1,
			WidthLo:       24, WidthHi: 40,
		},

		// ---- synthetic scenarios spanning the generator's knobs ----
		{
			Name:    "toy4-w8",
			Notes:   "4-core toy, the smallest corpus entry",
			Build:   synth(bench.SynthConfig{Name: "toy4", Cores: 4, Seed: 101}),
			Params:  sched.Params{TAMWidth: 8},
			WidthLo: 4, WidthHi: 16,
		},
		{
			Name:    "toy6-bist1-w8",
			Notes:   "toy with every BIST memory funneled onto one engine",
			Build:   synth(bench.SynthConfig{Name: "toy6bist1", Cores: 6, Seed: 102, BISTEngines: 1}),
			Params:  sched.Params{TAMWidth: 8},
			WidthLo: 4, WidthHi: 16,
		},
		{
			Name:    "rand16-classic-w24",
			Notes:   "the classic `socgen -random -cores 16 -seed 7` SOC, frozen",
			Build:   synth(bench.SynthConfig{Cores: 16, Seed: 7}),
			Params:  sched.Params{TAMWidth: 24},
			WidthLo: 16, WidthHi: 32,
		},
		{
			Name:    "rand16-seed9-w24",
			Notes:   "a second 16-core draw, different seed",
			Build:   synth(bench.SynthConfig{Cores: 16, Seed: 9}),
			Params:  sched.Params{TAMWidth: 24},
			WidthLo: 16, WidthHi: 32,
		},
		{
			Name:    "hier12-w16",
			Notes:   "shallow hierarchy: ~35% of cores nested",
			Build:   synth(bench.SynthConfig{Name: "hier12", Cores: 12, Seed: 103, HierarchyPct: 35}),
			Params:  sched.Params{TAMWidth: 16},
			WidthLo: 8, WidthHi: 24,
		},
		{
			Name:    "hier24-deep-w32",
			Notes:   "deep hierarchy: ~60% of cores nested, long Extest chains",
			Build:   synth(bench.SynthConfig{Name: "hier24", Cores: 24, Seed: 104, HierarchyPct: 60}),
			Params:  sched.Params{TAMWidth: 32},
			WidthLo: 24, WidthHi: 40,
		},
		{
			Name:    "bistconflict20-w24",
			Notes:   "20 cores with all BIST memories on a single engine",
			Build:   synth(bench.SynthConfig{Name: "bistconflict20", Cores: 20, Seed: 105, BISTEngines: 1}),
			Params:  sched.Params{TAMWidth: 24},
			WidthLo: 16, WidthHi: 32,
		},
		{
			Name:    "nobist18-w24",
			Notes:   "same generator with BIST disabled: memories become scan cores",
			Build:   synth(bench.SynthConfig{Name: "nobist18", Cores: 18, Seed: 106, BISTEngines: -1}),
			Params:  sched.Params{TAMWidth: 24},
			WidthLo: 16, WidthHi: 32,
		},
		{
			Name:    "power20-tight-w24",
			Notes:   "explicit per-test powers, budget 105% of the largest (tight)",
			Build:   synth(bench.SynthConfig{Name: "power20", Cores: 20, Seed: 107, PowerValues: true, PowerBudgetPct: 105}),
			Params:  sched.Params{TAMWidth: 24},
			WidthLo: 16, WidthHi: 32,
		},
		{
			Name:    "power20-loose-w24",
			Notes:   "same SOC structure, 400% budget (barely binding)",
			Build:   synth(bench.SynthConfig{Name: "power20", Cores: 20, Seed: 107, PowerValues: true, PowerBudgetPct: 400}),
			Params:  sched.Params{TAMWidth: 24},
			WidthLo: 16, WidthHi: 32,
		},
		{
			Name:    "power20-uncon-w24",
			Notes:   "same SOC structure, unconstrained power",
			Build:   synth(bench.SynthConfig{Name: "power20", Cores: 20, Seed: 107, PowerValues: true}),
			Params:  sched.Params{TAMWidth: 24},
			WidthLo: 16, WidthHi: 32,
		},
		{
			Name:    "prec12-chain-w16",
			Notes:   "dense acyclic precedence web on 12 cores",
			Build:   synth(bench.SynthConfig{Name: "prec12", Cores: 12, Seed: 108, ExtraPrecedences: 8}),
			Params:  sched.Params{TAMWidth: 16},
			WidthLo: 8, WidthHi: 24,
		},
		{
			Name:    "conc14-dense-w16",
			Notes:   "10 mutual-exclusion pairs on 14 cores",
			Build:   synth(bench.SynthConfig{Name: "conc14", Cores: 14, Seed: 109, ExtraConcurrencies: 10}),
			Params:  sched.Params{TAMWidth: 16},
			WidthLo: 8, WidthHi: 24,
		},
		{
			Name:  "mixed24-all-constraints-w32",
			Notes: "hierarchy + power + precedence + concurrency on one 24-core SOC",
			Build: synth(bench.SynthConfig{
				Name: "mixed24", Cores: 24, Seed: 110, HierarchyPct: 30,
				PowerValues: true, PowerBudgetPct: 150,
				ExtraPrecedences: 5, ExtraConcurrencies: 5,
			}),
			Params:  sched.Params{TAMWidth: 32},
			WidthLo: 24, WidthHi: 40,
		},
		{
			Name:    "combo10-w16",
			Notes:   "combinational-heavy profile: wide wrappers, shallow tests",
			Build:   synth(bench.SynthConfig{Name: "combo10", Cores: 10, Seed: 111, Profile: "combo"}),
			Params:  sched.Params{TAMWidth: 16},
			WidthLo: 8, WidthHi: 24,
		},
		{
			Name:    "longchain8-w16",
			Notes:   "few-but-deep scan chains: bottleneck-dominated lower bounds",
			Build:   synth(bench.SynthConfig{Name: "longchain8", Cores: 8, Seed: 112, Profile: "longchain"}),
			Params:  sched.Params{TAMWidth: 16},
			WidthLo: 8, WidthHi: 24,
		},
		{
			Name:          "longchain8-w16-preempt2",
			Notes:         "the same bottleneck SOC with 2 preemptions for the larger cores",
			Build:         synth(bench.SynthConfig{Name: "longchain8", Cores: 8, Seed: 112, Profile: "longchain"}),
			Params:        sched.Params{TAMWidth: 16},
			PreemptLarger: 2,
			WidthLo:       8, WidthHi: 24,
		},
		{
			Name:    "monster48-w48",
			Notes:   "48-core SOC with light hierarchy",
			Build:   synth(bench.SynthConfig{Name: "monster48", Cores: 48, Seed: 113, HierarchyPct: 20}),
			Params:  sched.Params{TAMWidth: 48},
			WidthLo: 40, WidthHi: 56,
		},
		{
			Name:  "monster60-w64",
			Notes: "60-core monster: hierarchy, power, precedence, concurrency at once",
			Build: synth(bench.SynthConfig{
				Name: "monster60", Cores: 60, Seed: 114, HierarchyPct: 25,
				PowerValues: true, PowerBudgetPct: 200,
				ExtraPrecedences: 6, ExtraConcurrencies: 6,
			}),
			Params:  sched.Params{TAMWidth: 64},
			WidthLo: 56, WidthHi: 72,
		},
		{
			Name:  "monster60-w64-preempt4",
			Notes: "the monster with 4 preemptions for the larger cores",
			Build: synth(bench.SynthConfig{
				Name: "monster60", Cores: 60, Seed: 114, HierarchyPct: 25,
				PowerValues: true, PowerBudgetPct: 200,
				ExtraPrecedences: 6, ExtraConcurrencies: 6,
			}),
			Params:        sched.Params{TAMWidth: 64},
			PreemptLarger: 4,
			WidthLo:       56, WidthHi: 72,
		},
	}
}

// ByName returns the named scenario.
func ByName(name string) (Scenario, bool) {
	for _, sc := range All() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
