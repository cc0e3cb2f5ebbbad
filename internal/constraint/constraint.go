// Package constraint models the scheduling constraints of the DAC 2002
// framework (Problem 2): precedence constraints between core tests,
// concurrency (mutual-exclusion) constraints — including those implied by
// core hierarchy (a parent's Intest conflicts with its children's tests) —
// a maximum power budget, BIST-engine resource conflicts, and per-core
// preemption limits. It corresponds to the Conflict subroutine (Fig. 7).
//
// Schedulers ask the Checker about one core at a time, against the cores
// that have completed and the cores running now. Both are a Set: a dense
// bitset over core IDs 1..len(SOC.Cores), so a query is a few word-wise
// AND tests plus a power sum over the running cores, with no map lookups
// and no allocation.
package constraint

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/soc"
)

// Set is a dense set of core IDs, one bit per ID. Make one with NewSet;
// the zero-length Set holds nothing and cannot grow. Methods take a value
// receiver and mutate the shared words, so a Set is passed and stored by
// value like a slice.
type Set []uint64

// NewSet returns an empty set that holds core IDs 0..n. Sets passed to a
// Checker must hold every core ID of its SOC: NewSet(len(soc.Cores)).
func NewSet(n int) Set { return make(Set, n/64+1) }

// Has reports whether id is in s.
func (s Set) Has(id int) bool { return s[id>>6]&(1<<(id&63)) != 0 }

// Add puts id in s.
func (s Set) Add(id int) { s[id>>6] |= 1 << (id & 63) }

// Remove takes id out of s.
func (s Set) Remove(id int) { s[id>>6] &^= 1 << (id & 63) }

// Clear empties s.
func (s Set) Clear() { clear(s) }

// Empty reports whether s holds no ID.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// firstCommon returns the lowest ID in both s and t, or -1. t must be at
// least as long as s.
func (s Set) firstCommon(t Set) int {
	for i, w := range s {
		if w &= t[i]; w != 0 {
			return i<<6 | bits.TrailingZeros64(w)
		}
	}
	return -1
}

// ascending returns s's IDs in increasing order.
func (s Set) ascending() []int {
	var out []int
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, i<<6|bits.TrailingZeros64(w))
		}
	}
	return out
}

// Per-core masks, in their order within Checker.masks.
const (
	predMask = iota // cores that must complete before the core begins
	concMask        // cores that may not run concurrently with it
	bistMask        // cores on its BIST engine, itself included; empty without one
	numMasks
)

// Checker answers "may core i start (or resume) now?" given the set of
// currently running cores. It is stateless with respect to time: callers
// tell it which cores are complete and which are running. Every table is
// indexed by core ID; index 0 is unused.
type Checker struct {
	soc *soc.SOC
	// preds[i] lists cores that must complete before core i may begin,
	// in the SOC's precedence order.
	preds [][]int
	// engine[i] is core i's BIST engine, or -1.
	engine []int
	// power[i] is core i's test power.
	power []int
	// powerMax is the budget; 0 disables the check.
	powerMax int
	// words is the length of every Set the checker handles.
	words int
	// masks holds numMasks Sets of words words per core ID, in one
	// backing array; see mask.
	masks []uint64
}

// Config tunes checker construction.
type Config struct {
	// PowerMax overrides the SOC's power budget when > 0. When both are
	// zero the power check is disabled.
	PowerMax int
	// IgnoreHierarchy suppresses the implicit parent/child concurrency
	// constraints (useful for ablation).
	IgnoreHierarchy bool
}

// New builds a Checker for the SOC. It derives hierarchy concurrency
// constraints, indexes explicit constraints, and rejects precedence cycles.
// The SOC need not be validated: a core ID, constraint endpoint or
// hierarchy parent outside 1..len(s.Cores), or a hierarchy cycle, is an
// error.
func New(s *soc.SOC, cfg Config) (*Checker, error) {
	if err := checkIDs(s); err != nil {
		return nil, err
	}
	n := len(s.Cores)
	words := n/64 + 1
	c := &Checker{
		soc:    s,
		preds:  make([][]int, n+1),
		engine: make([]int, n+1),
		power:  make([]int, n+1),
		words:  words,
		masks:  make([]uint64, (n+1)*numMasks*words),
	}
	c.powerMax = s.PowerMax
	if cfg.PowerMax > 0 {
		c.powerMax = cfg.PowerMax
	}
	for i := range c.engine {
		c.engine[i] = -1
	}
	for _, core := range s.Cores {
		c.engine[core.ID] = core.Test.BISTEngine
		c.power[core.ID] = core.TestPower()
	}
	for _, p := range s.Precedences {
		c.preds[p.After] = append(c.preds[p.After], p.Before)
		c.mask(p.After, predMask).Add(p.Before)
	}
	addConc := func(a, b int) {
		c.mask(a, concMask).Add(b)
		c.mask(b, concMask).Add(a)
	}
	for _, cc := range s.Concurrencies {
		addConc(cc.A, cc.B)
	}
	if !cfg.IgnoreHierarchy {
		for _, cc := range s.HierarchyConcurrencies() {
			addConc(cc.A, cc.B)
		}
	}
	for a := 1; a <= n; a++ {
		if c.engine[a] < 0 {
			continue
		}
		for b := 1; b <= n; b++ {
			if c.engine[b] == c.engine[a] {
				c.mask(a, bistMask).Add(b)
			}
		}
	}
	if err := c.checkAcyclic(); err != nil {
		return nil, err
	}
	if err := c.checkFeasible(); err != nil {
		return nil, err
	}
	return c, nil
}

// checkIDs rejects any core ID, constraint endpoint or hierarchy parent
// outside 1..len(s.Cores), and hierarchy cycles, so the dense tables can
// be indexed without bounds surprises.
func checkIDs(s *soc.SOC) error {
	n := len(s.Cores)
	in := func(id int) bool { return id >= 1 && id <= n }
	parent := make([]int, n+1)
	for i, core := range s.Cores {
		if !in(core.ID) {
			return fmt.Errorf("constraint: core at index %d has ID %d outside 1..%d", i, core.ID, n)
		}
		if core.Parent != 0 && !in(core.Parent) {
			return fmt.Errorf("constraint: core %d has parent %d outside 1..%d", core.ID, core.Parent, n)
		}
		parent[core.ID] = core.Parent
	}
	for _, p := range s.Precedences {
		if !in(p.Before) || !in(p.After) {
			return fmt.Errorf("constraint: precedence %d<%d names a core outside 1..%d", p.Before, p.After, n)
		}
	}
	for _, cc := range s.Concurrencies {
		if !in(cc.A) || !in(cc.B) {
			return fmt.Errorf("constraint: concurrency %d~%d names a core outside 1..%d", cc.A, cc.B, n)
		}
	}
	// A parent chain longer than the core count is a cycle, which would
	// never end the hierarchy walk.
	for id := 1; id <= n; id++ {
		steps := 0
		for p := parent[id]; p != 0; p = parent[p] {
			if steps++; steps > n {
				return fmt.Errorf("constraint: hierarchy cycle involving core %d", id)
			}
		}
	}
	return nil
}

// mask returns core id's Set of the given kind (predMask, concMask or
// bistMask), a view into c.masks.
func (c *Checker) mask(id, kind int) Set {
	off := (id*numMasks + kind) * c.words
	return Set(c.masks[off : off+c.words : off+c.words])
}

// checkAcyclic rejects precedence cycles via Kahn's algorithm.
func (c *Checker) checkAcyclic() error {
	n := len(c.preds) - 1
	indeg := make([]int, n+1)
	succ := make([][]int, n+1)
	for after, befores := range c.preds {
		for _, b := range befores {
			succ[b] = append(succ[b], after)
			indeg[after]++
		}
	}
	var queue []int
	for id := 1; id <= n; id++ {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	done := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		done++
		for _, nx := range succ[id] {
			indeg[nx]--
			if indeg[nx] == 0 {
				queue = append(queue, nx)
			}
		}
	}
	if done != n {
		return fmt.Errorf("constraint: precedence constraints contain a cycle")
	}
	return nil
}

// checkFeasible rejects budgets no single test can meet.
func (c *Checker) checkFeasible() error {
	if c.powerMax == 0 {
		return nil
	}
	for _, core := range c.soc.Cores {
		if p := c.power[core.ID]; p > c.powerMax {
			return fmt.Errorf("constraint: core %d (%s) dissipates %d > power budget %d; no schedule exists",
				core.ID, core.Name, p, c.powerMax)
		}
	}
	return nil
}

// PowerMax returns the effective budget (0 when unconstrained).
func (c *Checker) PowerMax() int { return c.powerMax }

// Power returns core id's test power.
func (c *Checker) Power(id int) int { return c.power[id] }

// Predecessors returns the cores that must complete before id may begin.
func (c *Checker) Predecessors(id int) []int { return c.preds[id] }

// powerOf sums the test power of the cores in running.
func (c *Checker) powerOf(running Set) int {
	sum := 0
	for i, w := range running {
		for ; w != 0; w &= w - 1 {
			sum += c.power[i<<6|bits.TrailingZeros64(w)]
		}
	}
	return sum
}

// Conflict reports why core id may not start now, or "" when it may.
// complete holds finished cores; running holds currently scheduled cores.
// It mirrors the paper's Conflict subroutine: precedence (lines 2-3),
// concurrency (4-5), power (6-9), and BIST-scan conflicts (10-11). A
// precedence conflict names the first unfinished predecessor in the
// SOC's order; a concurrency or BIST conflict names the lowest-ID runner.
func (c *Checker) Conflict(id int, complete, running Set) string {
	for _, pre := range c.preds[id] {
		if !complete.Has(pre) {
			return fmt.Sprintf("precedence: core %d must complete before core %d", pre, id)
		}
	}
	if other := c.mask(id, concMask).firstCommon(running); other >= 0 {
		return fmt.Sprintf("concurrency: core %d may not run with core %d", id, other)
	}
	if c.powerMax > 0 {
		if sum := c.power[id] + c.powerOf(running); sum > c.powerMax {
			return fmt.Sprintf("power: %d exceeds budget %d", sum, c.powerMax)
		}
	}
	if e := c.engine[id]; e >= 0 {
		if other := c.mask(id, bistMask).firstCommon(running); other >= 0 {
			return fmt.Sprintf("bist: cores %d and %d share BIST engine %d", id, other, e)
		}
	}
	return ""
}

// OK reports whether core id may start now: Conflict(id, complete,
// running) == "", without building the message.
func (c *Checker) OK(id int, complete, running Set) bool {
	pre, conc, bist := c.mask(id, predMask), c.mask(id, concMask), c.mask(id, bistMask)
	// Reslicing to the mask length lets the loop run without bounds checks.
	complete, running = complete[:len(pre)], running[:len(pre)]
	for i := range pre {
		if pre[i]&^complete[i] != 0 || (conc[i]|bist[i])&running[i] != 0 {
			return false
		}
	}
	return c.powerMax == 0 || c.power[id]+c.powerOf(running) <= c.powerMax
}

// ValidateTimeline checks a completed schedule: for every core interval
// set, precedence, concurrency, BIST and power constraints must hold at
// every instant. intervals maps core ID to its (start, end) pieces. The
// error names the first violation in a fixed order, so it does not
// depend on map iteration: precedence by ascending (After, Before), then
// overlapping pairs by ascending IDs, then the power sweep.
func (c *Checker) ValidateTimeline(intervals map[int][]Interval) error {
	n := len(c.preds) - 1
	ids := make([]int, 0, len(intervals))
	for id := range intervals {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if id < 1 || id > n {
			return fmt.Errorf("constraint: intervals for core %d outside 1..%d", id, n)
		}
	}
	// Precedence: After's first start must be >= Before's last end.
	for after := 1; after <= n; after++ {
		ai := intervals[after]
		if len(ai) == 0 {
			continue
		}
		for _, b := range c.mask(after, predMask).ascending() {
			bi := intervals[b]
			if len(bi) == 0 {
				return fmt.Errorf("constraint: core %d scheduled but predecessor %d never runs", after, b)
			}
			if first(ai) < last(bi) {
				return fmt.Errorf("constraint: core %d starts at %d before predecessor %d ends at %d",
					after, first(ai), b, last(bi))
			}
		}
	}
	// Pairwise checks at overlap: concurrency + BIST.
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if !overlaps(intervals[a], intervals[b]) {
				continue
			}
			if c.mask(a, concMask).Has(b) {
				return fmt.Errorf("constraint: concurrency violation: cores %d and %d overlap", a, b)
			}
			if ea, eb := c.engine[a], c.engine[b]; ea >= 0 && ea == eb {
				return fmt.Errorf("constraint: BIST engine %d shared by overlapping cores %d and %d", ea, a, b)
			}
		}
	}
	// Power: sweep events in a total order (time, then ends before
	// starts, then core ID).
	if c.powerMax > 0 {
		type ev struct {
			t     int64
			delta int
			id    int
		}
		var evs []ev
		for _, id := range ids {
			for _, iv := range intervals[id] {
				evs = append(evs, ev{iv.Start, c.power[id], id}, ev{iv.End, -c.power[id], id})
			}
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].t != evs[j].t {
				return evs[i].t < evs[j].t
			}
			if evs[i].delta != evs[j].delta {
				return evs[i].delta < evs[j].delta
			}
			return evs[i].id < evs[j].id
		})
		sum := 0
		for _, e := range evs {
			sum += e.delta
			if sum > c.powerMax {
				return fmt.Errorf("constraint: power %d exceeds budget %d at time %d", sum, c.powerMax, e.t)
			}
		}
	}
	return nil
}

// Interval is a [Start, End) time span.
type Interval struct{ Start, End int64 }

func first(ivs []Interval) int64 {
	m := ivs[0].Start
	for _, iv := range ivs {
		if iv.Start < m {
			m = iv.Start
		}
	}
	return m
}

func last(ivs []Interval) int64 {
	var m int64
	for _, iv := range ivs {
		if iv.End > m {
			m = iv.End
		}
	}
	return m
}

func overlaps(a, b []Interval) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Start < y.End && y.Start < x.End {
				return true
			}
		}
	}
	return false
}
