// Package anneal implements the "anneal" scheduling backend: seeded
// simulated-annealing local search over rectangle placements. A candidate
// solution is a genome — a core priority order, a per-core width cap and
// quality floor over the Pareto staircase, and an optional forced split
// point when the core has preemption budget — decoded by internal/pack,
// the packer the rectpack backends use, honoring the identical
// precedence / concurrency / power / BIST checks. The search is seeded
// with rectpack's deterministic portfolio, its cap ladder taken from the
// per-core width cap rather than the TAM width, so whenever the TAM is no
// wider than that cap its best-ever solution is never worse than
// rectpack's; annealing then perturbs orders, Pareto points, and split
// points to escape the greedy packer's local minima.
//
// The search is fully deterministic under a fixed Params.Seed (zero means
// sched.DefaultSeed): the same seed always yields byte-identical
// schedules. The backend registers itself as "anneal" on import.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/pack"
	"repro/internal/sched"
)

// Name is the backend's registry name.
const Name = "anneal"

// siteSchedule is the failpoint the chaos suite arms to make this backend
// fail, stall, or hang inside a portfolio race.
const siteSchedule = "anneal/schedule"

// Backend is the annealing local-search backend. The zero value is ready
// to use; it is stateless and safe for concurrent use (each Schedule call
// owns its own seeded generator).
type Backend struct{}

// New returns the anneal backend (also registered globally on import).
func New() *Backend { return &Backend{} }

// Name returns "anneal".
func (*Backend) Name() string { return Name }

// seedGenomes is rectpack's deterministic portfolio with caps relative to
// the per-core width cap, plus two ascending orders for budget-bearing
// parameter sets (budgets land on the larger cores, so small-cores-first
// priority makes the budgeted giants the natural split candidates). With
// these seeds evaluated before any annealing move, the backend's
// best-ever solution starts no worse than rectpack's portfolio winner.
// Each seed is a private clone, free for in-place moves.
func seedGenomes(p *pack.Packer) []*pack.Genome {
	seeds := p.Portfolio(p.WMax)
	full, zero := p.Uniform(p.WMax), make([]int, len(p.Cores))
	for _, less := range []func(a, b *pack.Core) bool{pack.Ascending(pack.ByTime), pack.Ascending(pack.ByArea)} {
		seeds = append(seeds, &pack.Genome{Perm: p.Order(less), Cap: full, Floor: zero})
	}
	for i, g := range seeds {
		seeds[i] = g.Clone()
	}
	return seeds
}

// neighbor mutates g in place with one random move and returns an undo
// closure. Moves: swap two priority positions, relocate one core in the
// priority order, re-aim a core at a different Pareto point, move its
// quality floor, or (for budget-bearing cores) set, move, or clear its
// forced split point.
func neighbor(g *pack.Genome, cores []pack.Core, wmax int, anyBudget bool, rng *rand.Rand) func() {
	n := len(g.Perm)
	kind := rng.Intn(100)
	if !anyBudget && kind >= 90 {
		kind = 60 // fold split moves into cap moves
	}
	switch {
	case kind < 30: // swap two priority positions
		i, j := rng.Intn(n), rng.Intn(n)
		g.Perm[i], g.Perm[j] = g.Perm[j], g.Perm[i]
		return func() { g.Perm[i], g.Perm[j] = g.Perm[j], g.Perm[i] }
	case kind < 50: // relocate one core in the priority order
		from, to := rng.Intn(n), rng.Intn(n)
		v := g.Perm[from]
		g.Perm = append(g.Perm[:from], g.Perm[from+1:]...)
		g.Perm = append(g.Perm[:to], append([]int{v}, g.Perm[to:]...)...)
		return func() {
			g.Perm = append(g.Perm[:to], g.Perm[to+1:]...)
			g.Perm = append(g.Perm[:from], append([]int{v}, g.Perm[from:]...)...)
		}
	case kind < 75: // re-aim a core at a different Pareto point
		ci := rng.Intn(n)
		old := g.Cap[ci]
		pts := cores[ci].Set.Points
		if rng.Intn(8) == 0 {
			g.Cap[ci] = wmax
		} else {
			g.Cap[ci] = pts[rng.Intn(len(pts))].Width
		}
		oldFloor := g.Floor[ci]
		if w, ok := cores[ci].Set.SnapDown(g.Cap[ci]); ok && g.Floor[ci] > w {
			g.Floor[ci] = 0 // keep the genome feasible: floor above cap never starts
		}
		return func() { g.Cap[ci], g.Floor[ci] = old, oldFloor }
	case kind < 90: // move a core's quality floor
		ci := rng.Intn(n)
		old := g.Floor[ci]
		if rng.Intn(2) == 0 {
			g.Floor[ci] = 0
		} else if w, ok := cores[ci].Set.SnapDown(g.Cap[ci]); ok {
			pts := cores[ci].Set.Points
			f := pts[rng.Intn(len(pts))].Width
			if f > w {
				f = w
			}
			g.Floor[ci] = f
		}
		return func() { g.Floor[ci] = old }
	default: // set, move, or clear a forced split point
		budgeted := make([]int, 0, n)
		for i, c := range cores {
			if c.Budget > 0 {
				budgeted = append(budgeted, i)
			}
		}
		ci := budgeted[rng.Intn(len(budgeted))]
		old := g.Split[ci]
		if old != 0 && rng.Intn(3) == 0 {
			g.Split[ci] = 0
		} else {
			w, ok := cores[ci].Set.SnapDown(g.Cap[ci])
			if !ok {
				w = cores[ci].Set.MaxParetoWidth()
			}
			dur := cores[ci].Set.Time(w)
			if dur > 1 {
				// Split somewhere in the middle three quarters of the run.
				lo := dur / 8
				if lo < 1 {
					lo = 1
				}
				hi := dur - dur/8
				if hi <= lo {
					hi = lo + 1
				}
				g.Split[ci] = lo + rng.Int63n(hi-lo)
			}
		}
		return func() { g.Split[ci] = old }
	}
}

// iterBudget scales the annealing move count down as the SOC grows, so a
// Schedule call stays a few tens of milliseconds across the corpus: each
// move costs one decode, roughly quadratic in the core count.
func iterBudget(n int) int {
	if n < 1 {
		n = 1
	}
	iters := 24000 / n
	if iters < 400 {
		iters = 400
	}
	if iters > 3000 {
		iters = 3000
	}
	return iters
}

// Schedule searches for the shortest placeable schedule: rectpack's
// portfolio as seeds, then simulated annealing over the best seed with
// best-ever tracking. Deterministic under a fixed Params.Seed.
func (*Backend) Schedule(ctx context.Context, opt *sched.Optimizer, params sched.Params) (*sched.Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "anneal/search")
	defer span.End()
	defer obs.TimeStage("anneal/search")()
	if err := chaos.InjectContext(ctx, siteSchedule); err != nil {
		return nil, err
	}
	p, err := pack.New(ctx, Name, opt, params)
	if err != nil {
		return nil, err
	}
	anyBudget := false
	for _, c := range p.Cores {
		if c.Budget > 0 {
			anyBudget = true
			break
		}
	}

	seed := params.Seed
	if seed == 0 {
		seed = sched.DefaultSeed
	}
	rng := rand.New(rand.NewSource(seed))

	// Evaluate the deterministic seeds; the best becomes the annealing
	// start and the best-ever floor.
	var cur *pack.Genome
	var curCost int64
	var firstErr error
	for _, g := range seedGenomes(p) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := p.Decode(g)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if cur == nil || res.Makespan < curCost {
			cur, curCost = g, res.Makespan
		}
	}
	if cur == nil {
		return nil, fmt.Errorf("anneal: every seed infeasible: %w", firstErr)
	}

	// Anneal: one random move per iteration, Metropolis acceptance on the
	// simulated makespan, geometric cooling, and a restart from the best
	// known solution when progress stalls. Every improvement is kept in
	// best-first order so wire assignment can fall back if the very best
	// layout turns out unplaceable.
	bests := []*pack.Genome{cur.Clone()}
	bestCost := curCost
	iters := iterBudget(len(p.Cores))
	t0 := float64(bestCost) / 100
	if t0 < 1 {
		t0 = 1
	}
	cooling := math.Pow(1e-3, 1/float64(iters))
	temp := t0
	stall := 0
	improved := 0
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		undo := neighbor(cur, p.Cores, p.WMax, anyBudget, rng)
		res, err := p.Decode(cur)
		cost := int64(math.MaxInt64)
		if err == nil {
			cost = res.Makespan
		}
		delta := float64(cost - curCost)
		if delta <= 0 || (err == nil && rng.Float64() < math.Exp(-delta/temp)) {
			curCost = cost
			if cost < bestCost {
				bestCost = cost
				bests = append([]*pack.Genome{cur.Clone()}, bests...)
				improved++
				stall = 0
			} else {
				stall++
			}
		} else {
			undo()
			stall++
		}
		if stall > iters/5 {
			cur, curCost = bests[0].Clone(), bestCost
			stall = 0
		}
		temp *= cooling
	}
	span.SetAttr("iters", iters)
	span.SetAttr("improved", improved)

	// Emit best-first: wire assignment may reject a busy split layout, in
	// which case the next-best recorded solution gets its chance.
	sch, res, err := p.Best(ctx, bests, "no solution placeable")
	if err != nil {
		return nil, err
	}
	span.SetAttr("makespan", sch.Makespan)
	span.SetAttr("splits", res.Splits)
	return sch, nil
}

func init() {
	sched.RegisterBackend(New())
	chaos.RegisterSites(siteSchedule)
}
