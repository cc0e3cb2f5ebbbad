// Package pack is the event-driven rectangle packer behind the rectpack,
// preempt-rectpack and anneal backends. Each core test is a width × time
// rectangle from the core's Pareto staircase, packed into the W-wire TAM
// bin as in the rectangle-packing formulations of Babu et al.
// (arXiv:1008.4448) and Islam et al. (arXiv:1008.3320).
//
// A Genome fixes one packing pass: a core priority order, a per-core
// width cap and quality floor, an optional forced split point per core,
// and a priority-preemption switch. Decode runs the pass under the same
// precedence / concurrency / power / BIST checks the classic scheduler
// uses; Emit maps the result onto concrete TAM wires; Best races a genome
// portfolio and emits the shortest placeable result. The backends differ
// only in the genomes they feed it: rectpack races a fixed portfolio,
// preempt-rectpack adds preemptive genomes, and anneal searches over
// genomes with seeded simulated annealing.
package pack

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/constraint"
	"repro/internal/pareto"
	"repro/internal/rect"
	"repro/internal/sched"
)

// Core is one core's immutable packing input.
type Core struct {
	ID int
	// Set is the core's Pareto staircase capped at WMax.
	Set *pareto.Set
	// Budget is the core's preemption budget: the most resumes after a
	// gap it may take.
	Budget int
}

// Genome is one packing pass. Slices are indexed by core position in
// Packer.Cores, except Perm, which lists those positions in fill
// priority order.
type Genome struct {
	Perm []int
	// Cap bounds the width offered to each core: a core starts at the
	// largest Pareto width <= min(Cap, free wires).
	Cap []int
	// Floor is each core's quality floor: a core never starts below it
	// (0 = any width).
	Floor []int
	// Split holds forced first-segment lengths in cycles for cores with
	// budget (nil or 0 = run to completion). A split core suspends
	// itself, freeing its wires, and resumes at a later event.
	Split []int64
	// Preempt lets a blocked core suspend strictly weaker running cores
	// that have budget left, so it can start (or resume) at once.
	Preempt bool
}

// Clone returns a deep copy of g with Split always allocated, so search
// moves can set split points on the copy.
func (g *Genome) Clone() *Genome {
	c := &Genome{
		Perm:    append([]int(nil), g.Perm...),
		Cap:     append([]int(nil), g.Cap...),
		Floor:   append([]int(nil), g.Floor...),
		Split:   make([]int64, len(g.Perm)),
		Preempt: g.Preempt,
	}
	copy(c.Split, g.Split)
	return c
}

// Packer holds the validated inputs shared by every pass over one
// (optimizer, params) pair. It is read-only after New, so passes may run
// concurrently.
type Packer struct {
	// Cores are the packing inputs, id-ascending.
	Cores []Core
	// TAMWidth is the bin height W.
	TAMWidth int
	// WMax is the per-core width cap min(MaxWidth, TAMWidth).
	WMax int

	name   string
	opt    *sched.Optimizer
	params sched.Params
	chk    *constraint.Checker
}

// New validates params (after Defaults) against opt and builds the capped
// Pareto sets, the preemption budgets and the constraint checker. name is
// the backend family that prefixes every error.
func New(ctx context.Context, name string, opt *sched.Optimizer, params sched.Params) (*Packer, error) {
	params = params.Defaults()
	if params.TAMWidth < 1 {
		return nil, fmt.Errorf("%s: non-positive TAM width %d", name, params.TAMWidth)
	}
	if params.MaxWidth > opt.MaxWidth() {
		return nil, fmt.Errorf("%s: params.MaxWidth %d exceeds optimizer cap %d", name, params.MaxWidth, opt.MaxWidth())
	}
	s := opt.SOC()
	chk, err := constraint.New(s, constraint.Config{
		PowerMax:        params.PowerMax,
		IgnoreHierarchy: params.IgnoreHierarchy,
	})
	if err != nil {
		return nil, err
	}
	wmax := min(params.MaxWidth, params.TAMWidth)
	// A validated SOC lists core i+1 at index i, so cores come out
	// id-ascending.
	cores := make([]Core, 0, len(s.Cores))
	for _, c := range s.Cores {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		set, err := opt.ParetoSet(c.ID).Capped(wmax)
		if err != nil {
			return nil, err
		}
		cores = append(cores, Core{ID: c.ID, Set: set, Budget: params.MaxPreemptions[c.ID]})
	}
	return &Packer{Cores: cores, TAMWidth: params.TAMWidth, WMax: wmax, name: name, opt: opt, params: params, chk: chk}, nil
}

// ByTime is a best-fit-decreasing key: longest best testing time first.
func ByTime(a, b *Core) bool { return a.Set.MinTime() > b.Set.MinTime() }

// ByArea puts the largest minimum rectangle area first.
func ByArea(a, b *Core) bool { return a.Set.MinArea() > b.Set.MinArea() }

// BySerial puts the longest one-wire (serial) testing time first.
func BySerial(a, b *Core) bool { return a.Set.Time(1) > b.Set.Time(1) }

// ByWidth puts the widest Pareto staircase first, then the longest test.
func ByWidth(a, b *Core) bool {
	if a.Set.MaxParetoWidth() != b.Set.MaxParetoWidth() {
		return a.Set.MaxParetoWidth() > b.Set.MaxParetoWidth()
	}
	return a.Set.MinTime() > b.Set.MinTime()
}

// Ascending reverses a size key: smallest cores first.
func Ascending(less func(a, b *Core) bool) func(a, b *Core) bool {
	return func(a, b *Core) bool { return less(b, a) }
}

// Order returns the core positions sorted by less. The sort is stable
// over id-ascending cores, so ties break toward the lower core ID.
func (p *Packer) Order(less func(a, b *Core) bool) []int {
	perm := make([]int, len(p.Cores))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool { return less(&p.Cores[perm[i]], &p.Cores[perm[j]]) })
	return perm
}

// Uniform returns w for every core.
func (p *Packer) Uniform(w int) []int {
	out := make([]int, len(p.Cores))
	for i := range out {
		out[i] = w
	}
	return out
}

// PerCore returns f applied to every core's Pareto set.
func (p *Packer) PerCore(f func(*pareto.Set) int) []int {
	out := make([]int, len(p.Cores))
	for i := range p.Cores {
		out[i] = f(p.Cores[i].Set)
	}
	return out
}

// MinAreaWidth returns the Pareto width minimizing w·T(w).
func MinAreaWidth(set *pareto.Set) int {
	best := set.Points[0].Width
	bestArea := int64(set.Points[0].Width) * set.Points[0].Time
	for _, pt := range set.Points[1:] {
		if a := int64(pt.Width) * pt.Time; a < bestArea {
			best, bestArea = pt.Width, a
		}
	}
	return best
}

// QualityWidth returns the smallest width whose time is within
// stretchPct% of the core's best time: starting narrower is worse than
// waiting.
func QualityWidth(stretchPct int64) func(*pareto.Set) int {
	return func(set *pareto.Set) int {
		limit := set.MinTime() + set.MinTime()*stretchPct/100
		for _, pt := range set.Points {
			if pt.Time <= limit {
				return pt.Width
			}
		}
		return set.MaxParetoWidth()
	}
}

// Portfolio returns the 26 deterministic best-fit-decreasing genomes, in
// tie-break order: four decreasing orders (time, area, serial length,
// width) crossed with the caps base, base/2, base/3, base/4 and each
// core's min-area width, then the time and area orders at cap base with
// quality floors of 25, 50 and 100 percent.
func (p *Packer) Portfolio(base int) []*Genome {
	zero := make([]int, len(p.Cores))
	full := p.Uniform(base)
	caps := [][]int{full, p.Uniform(max(base/2, 1)), p.Uniform(max(base/3, 1)), p.Uniform(max(base/4, 1)), p.PerCore(MinAreaWidth)}
	var out []*Genome
	for _, less := range []func(a, b *Core) bool{ByTime, ByArea, BySerial, ByWidth} {
		perm := p.Order(less)
		for _, c := range caps {
			out = append(out, &Genome{Perm: perm, Cap: c, Floor: zero})
		}
	}
	for _, less := range []func(a, b *Core) bool{ByTime, ByArea} {
		perm := p.Order(less)
		for _, pct := range []int64{25, 50, 100} {
			out = append(out, &Genome{Perm: perm, Cap: full, Floor: p.PerCore(QualityWidth(pct))})
		}
	}
	return out
}

// phase is a core's state within one pass.
type phase uint8

const (
	pending phase = iota
	active
	paused
	finished
)

// span is one closed segment of a (possibly split) rectangle.
type span struct {
	start, end int64
}

// run is a core's state within one pass.
type run struct {
	phase     phase
	width     int   // fixed at first start (vertical-split rule)
	remaining int64 // cycles left in the current run
	segStart  int64 // begin of the open segment
	yieldAt   int64 // pending forced split instant; -1 = none
	yieldedAt int64 // instant of the last forced split; -1 after a priority preemption
	segs      []span
	preempts  int
	penalty   int64
}

// closeSeg ends the open segment at end, merging seamless continuations
// so gaps are the only split points.
func (r *run) closeSeg(end int64) {
	r.remaining -= end - r.segStart
	if n := len(r.segs); n > 0 && r.segs[n-1].end == r.segStart {
		r.segs[n-1].end = end
	} else {
		r.segs = append(r.segs, span{r.segStart, end})
	}
}

// suspend closes the open segment at now and releases the core's wires.
func (r *run) suspend(now, yieldedAt int64) {
	r.closeSeg(now)
	r.phase = paused
	r.yieldAt = -1
	r.yieldedAt = yieldedAt
}

// Result is one decoded pass before wire assignment.
type Result struct {
	runs     []run // parallel to Packer.Cores
	Makespan int64
	Events   int
	// Splits counts forced splits plus priority-preemption starts.
	Splits int
}

// Decode runs g through the event-driven packer. At every event each
// core is offered, in g's priority order, the largest Pareto width that
// fits the free wires under its cap, subject to its floor and the
// constraint checker; the clock then advances to the earliest segment
// end or forced split. A split core resumes at a later event at the same
// width (the vertical-split rule), paying the wrapper's preemption
// penalty for the gap. With g.Preempt, a core blocked by its floor or by
// busy wires may suspend strictly weaker runners to start or resume at
// once; a victim re-admitted at the same instant resumes seamlessly, for
// free. Decode fails when g is infeasible: a constraint deadlock, or
// floors no reachable width satisfies.
func (p *Packer) Decode(g *Genome) (*Result, error) {
	n := len(p.Cores)
	runs := make([]run, n)
	firsts := make([]span, n) // backing for each core's first segment
	for i := range runs {
		runs[i].segs = firsts[i : i : i+1]
	}
	// The checker ranges over running, and ranging costs the map's
	// capacity, so running grows with use; complete only answers lookups.
	running := make(map[int]bool)
	complete := make(map[int]bool, n)
	var now int64
	avail := p.TAMWidth
	left, events, splits := n, 0, 0
	for left > 0 {
		events++
		for pos, ci := range g.Perm {
			c, r := &p.Cores[ci], &runs[ci]
			switch r.phase {
			case paused:
				if now <= r.yieldedAt {
					continue // a forced split never resumes at its split instant
				}
				ok := avail >= r.width && p.chk.OK(c.ID, complete, running)
				if !ok && g.Preempt {
					avail, ok = p.preemptFor(runs, g.Perm, pos, r.width, avail, now, complete, running)
				}
				if ok {
					p.resume(c, r, now)
					running[c.ID] = true
					avail -= r.width
				}
			case pending:
				floor := g.Floor[ci]
				if avail >= 1 {
					w, ok := c.Set.SnapDown(min(g.Cap[ci], avail))
					if ok && (floor == 0 || w >= floor) && p.chk.OK(c.ID, complete, running) {
						splits += p.start(g, ci, r, now, w)
						running[c.ID] = true
						avail -= w
						continue
					}
				}
				if !g.Preempt {
					continue
				}
				// Blocked: aim for the full target width, victims willing.
				target, ok := c.Set.SnapDown(g.Cap[ci])
				if !ok || (floor > 0 && target < floor) {
					continue
				}
				if avail, ok = p.preemptFor(runs, g.Perm, pos, target, avail, now, complete, running); ok {
					splits += 1 + p.start(g, ci, r, now, target)
					running[c.ID] = true
					avail -= target
				}
			}
		}
		if len(running) == 0 {
			return nil, fmt.Errorf("%s: no core can run at t=%d with %d cores left", p.name, now, left)
		}
		// Advance to the earliest segment end or forced split, then retire
		// or suspend everything landing there.
		next := int64(-1)
		for i := range runs {
			if r := &runs[i]; r.phase == active {
				if end := r.stop(); next == -1 || end < next {
					next = end
				}
			}
		}
		for i := range runs {
			r := &runs[i]
			if r.phase != active || r.stop() != next {
				continue
			}
			delete(running, p.Cores[i].ID)
			avail += r.width
			if r.yieldAt == next {
				r.suspend(next, next)
				continue
			}
			r.closeSeg(next)
			r.phase = finished
			complete[p.Cores[i].ID] = true
			left--
		}
		now = next
	}
	return &Result{runs: runs, Makespan: now, Events: events, Splits: splits}, nil
}

// stop returns the instant the running core's open segment ends: its
// completion, or its pending forced split when that comes first.
func (r *run) stop() int64 {
	end := r.segStart + r.remaining
	if r.yieldAt >= 0 && r.yieldAt < end {
		return r.yieldAt
	}
	return end
}

// start opens core ci's first segment at width w and arms its split gene
// when the core has budget; it returns 1 when a forced split was armed.
func (p *Packer) start(g *Genome, ci int, r *run, now int64, w int) int {
	r.phase = active
	r.width = w
	r.remaining = p.Cores[ci].Set.Time(w)
	r.segStart = now
	r.yieldAt = -1
	if g.Split != nil {
		if split := g.Split[ci]; split > 0 && p.Cores[ci].Budget > 0 && split < r.remaining {
			r.yieldAt = now + split
			return 1
		}
	}
	return 0
}

// resume reopens a suspended core at its fixed width. A resume after a
// gap is a preemption: it consumes one budget unit and pays the
// wrapper's penalty; a seamless resume merges back for free.
func (p *Packer) resume(c *Core, r *run, now int64) {
	if n := len(r.segs); n > 0 && r.segs[n-1].end < now {
		d := p.opt.Design(c.ID, r.width)
		if d == nil {
			// Width in 1..maxWidth and core validated: cannot happen.
			panic(fmt.Sprintf("%s: no cached design for core %d width %d", p.name, c.ID, r.width))
		}
		pen := d.PreemptionPenalty()
		r.preempts++
		r.penalty += pen
		r.remaining += pen
	}
	r.phase = active
	r.segStart = now
}

// preemptFor tries to free want wires for the blocked core at perm[pos]
// by suspending strictly weaker running cores (later in perm) that have
// budget left and have made progress this segment, weakest first. On
// success the suspensions are committed and the new free-wire count (>=
// want) is returned with true. When the core still cannot run (too few
// victim wires, or the constraint checker refuses even with the victims
// gone) nothing changes and avail is returned with false.
func (p *Packer) preemptFor(runs []run, perm []int, pos, want, avail int, now int64, complete, running map[int]bool) (int, bool) {
	var victims []int
	freed := 0
	for vpos := len(perm) - 1; vpos > pos && avail+freed < want; vpos-- {
		vi := perm[vpos]
		v := &runs[vi]
		if v.phase != active || v.preempts >= p.Cores[vi].Budget || v.segStart >= now {
			continue
		}
		victims = append(victims, vi)
		freed += v.width
	}
	if avail+freed < want {
		return avail, false
	}
	for _, vi := range victims {
		delete(running, p.Cores[vi].ID)
	}
	if !p.chk.OK(p.Cores[perm[pos]].ID, complete, running) {
		for _, vi := range victims {
			running[p.Cores[vi].ID] = true
		}
		return avail, false
	}
	for _, vi := range victims {
		runs[vi].suspend(now, -1)
	}
	return avail + freed, true
}

// Emit maps a decoded pass onto concrete TAM wires and builds the
// schedule, with wrapper metadata served from the optimizer's cache.
// Fragments are placed in (start, core ID) order; a resumed segment
// prefers its previous wires, like the classic scheduler's preempted
// resumes. Split layouts can run out of simultaneously free wires, which
// is an error here; a one-piece layout always places.
func (p *Packer) Emit(res *Result) (*sched.Schedule, error) {
	bin, err := rect.NewBin(p.TAMWidth)
	if err != nil {
		return nil, err
	}
	type frag struct {
		ci  int
		seg span
	}
	frags := make([]frag, 0, len(res.runs))
	for i := range res.runs {
		for _, sg := range res.runs[i].segs {
			frags = append(frags, frag{i, sg})
		}
	}
	sort.Slice(frags, func(i, j int) bool {
		if frags[i].seg.start != frags[j].seg.start {
			return frags[i].seg.start < frags[j].seg.start
		}
		return p.Cores[frags[i].ci].ID < p.Cores[frags[j].ci].ID
	})
	out := &sched.Schedule{
		SOC:         p.opt.SOC().Name,
		TAMWidth:    p.TAMWidth,
		Params:      p.params,
		Assignments: make(map[int]*sched.Assignment, len(p.Cores)),
		Makespan:    res.Makespan,
		Bin:         bin,
		Events:      res.Events,
	}
	for _, f := range frags {
		c, r := &p.Cores[f.ci], &res.runs[f.ci]
		var prefer []int
		a := out.Assignments[c.ID]
		if a != nil {
			prefer = a.Pieces[len(a.Pieces)-1].Wires
		}
		pc, err := bin.PlacePreferred(c.ID, r.width, f.seg.start, f.seg.end, prefer)
		if err != nil {
			return nil, fmt.Errorf("%s: wire assignment: %v", p.name, err)
		}
		if a == nil {
			d := p.opt.Design(c.ID, r.width)
			if d == nil {
				return nil, fmt.Errorf("%s: no cached design for core %d width %d", p.name, c.ID, r.width)
			}
			a = &sched.Assignment{
				CoreID:        c.ID,
				Width:         r.width,
				Preemptions:   r.preempts,
				PenaltyCycles: r.penalty,
				BaseTime:      c.Set.Time(r.width),
				ScanIn:        d.ScanInMax,
				ScanOut:       d.ScanOutMax,
			}
			out.Assignments[c.ID] = a
		}
		a.Pieces = append(a.Pieces, *pc)
	}
	return out, nil
}

// Best decodes every genome and emits the shortest placeable result,
// best-first: when wire assignment rejects a layout the next-best one
// gets its chance. Ties break toward the earlier genome, so the result
// is deterministic. When nothing decodes and places, the error says
// fail and wraps the first failure.
func (p *Packer) Best(ctx context.Context, genomes []*Genome, fail string) (*sched.Schedule, *Result, error) {
	var cands []*Result
	var firstErr error
	for _, g := range genomes {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		res, err := p.Decode(g)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		cands = append(cands, res)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Makespan < cands[j].Makespan })
	for _, res := range cands {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sch, err := p.Emit(res)
		if err == nil {
			return sch, res, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, nil, fmt.Errorf("%s: %s: %w", p.name, fail, firstErr)
}
