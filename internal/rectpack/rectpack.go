// Package rectpack implements the "rectpack" scheduling backend: best-fit
// decreasing rectangle bin packing over the per-core Pareto-optimal
// (width, time) points, in the spirit of the rectangle-packing
// formulations of Babu et al. (arXiv:1008.4448) and Islam et al.
// (arXiv:1008.3320). Where the classic backend grows preferred-width
// assignments through a priority loop and sweeps an (α, δ, slack) grid,
// rectpack packs each core's rectangle directly: cores are sorted by a
// decreasing size key (testing time, rectangle area, serial length, or
// width), and at every schedule event the packer starts the biggest
// eligible core at the best Pareto width that fits the free TAM wires,
// subject to the same precedence / concurrency / power / BIST checks the
// classic scheduler uses. A small deterministic portfolio of (ordering,
// width-cap, quality-floor) genomes is packed by internal/pack and the
// shortest result wins — still an order of magnitude fewer scheduler
// passes than the classic grid sweep.
//
// The backend registers itself as "rectpack" with the sched backend
// registry on import; it reuses the sched.Optimizer's cached Pareto
// staircases and wrapper designs, so no wrapper is ever redesigned here.
package rectpack

import (
	"context"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/pack"
	"repro/internal/sched"
)

// Name is the backend's registry name.
const Name = "rectpack"

// siteSchedule is the failpoint the chaos suite arms to make this backend
// fail, stall, or hang inside a portfolio race.
const siteSchedule = "rectpack/schedule"

// Backend is the rectangle bin-packing backend. The zero value is ready to
// use; it is stateless and safe for concurrent use.
type Backend struct{}

// New returns the rectpack backend (also registered globally on import).
func New() *Backend { return &Backend{} }

// Name returns "rectpack".
func (*Backend) Name() string { return Name }

// Declines reports the regime rectpack cannot honestly serve: non-zero
// preemption budgets. Rectpack never splits a rectangle, so racing it
// against a budget would silently return a non-preemptive schedule; the
// preempt-rectpack backend covers that regime instead.
func (*Backend) Declines(params sched.Params) (reason string, declined bool) {
	if hasBudget(params.MaxPreemptions) {
		return "preemption budgets are not supported (preempt-rectpack splits rectangles)", true
	}
	return "", false
}

// hasBudget reports whether any core has a non-zero preemption budget.
func hasBudget(budgets map[int]int) bool {
	for _, b := range budgets {
		if b > 0 {
			return true
		}
	}
	return false
}

// Schedule packs the optimizer's SOC with the 26-genome portfolio (caps
// relative to the TAM width) and returns the shortest schedule. The
// result is non-preemptive (preemption budgets are upper bounds; rectpack
// simply never splits a rectangle) and satisfies every constraint the
// classic backend honors.
func (*Backend) Schedule(ctx context.Context, opt *sched.Optimizer, params sched.Params) (*sched.Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "rectpack/pack")
	defer span.End()
	defer obs.TimeStage("rectpack/pack")()
	if err := chaos.InjectContext(ctx, siteSchedule); err != nil {
		return nil, err
	}
	p, err := pack.New(ctx, Name, opt, params)
	if err != nil {
		return nil, err
	}
	genomes := p.Portfolio(p.TAMWidth)
	sch, _, err := p.Best(ctx, genomes, "every strategy failed")
	if err != nil {
		return nil, err
	}
	span.SetAttr("strategies", len(genomes))
	span.SetAttr("makespan", sch.Makespan)
	return sch, nil
}

func init() {
	sched.RegisterBackend(New())
	chaos.RegisterSites(siteSchedule)
}
