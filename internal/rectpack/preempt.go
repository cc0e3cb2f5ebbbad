// Preemptive rectangle packing: the "preempt-rectpack" backend extends
// the best-fit-decreasing portfolio with horizontal rectangle splitting,
// in the spirit of the split placements of the rectangle bin-packing
// line (arXiv:1008.4448, 1008.4446). A core's (width, time) rectangle may
// be cut into up to maxPreemptions+1 segments placed independently at the
// same width (the vertical-split rule), each resume-after-gap paying the
// wrapper's preemption penalty. The split trigger is priority preemption
// (pack.Genome.Preempt): when a high-priority core is blocked — its
// quality floor or Pareto widths demand more wires than are free — weaker
// running cores with budget left are suspended to free wires, and resume
// later in the big core's shadow. Every non-preemptive rectpack genome
// races too, so the preemptive backend never packs worse than plain
// rectpack on the same parameters.
package rectpack

import (
	"context"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/pack"
	"repro/internal/pareto"
	"repro/internal/sched"
)

// PreemptName is the preemptive backend's registry name.
const PreemptName = "preempt-rectpack"

// sitePreempt is the failpoint the chaos suite arms to make the
// preemptive backend fail, stall, or hang inside a portfolio race.
const sitePreempt = "rectpack/preempt/schedule"

// PreemptBackend is the splitting rectangle packer. The zero value is
// ready to use; it is stateless and safe for concurrent use.
type PreemptBackend struct{}

// NewPreempt returns the preempt-rectpack backend (also registered
// globally on import).
func NewPreempt() *PreemptBackend { return &PreemptBackend{} }

// Name returns "preempt-rectpack".
func (*PreemptBackend) Name() string { return PreemptName }

// Declines reports the regime this backend leaves to plain rectpack: with
// every preemption budget zero no rectangle may ever be split, so the
// preemptive passes collapse into the non-preemptive portfolio and racing
// both backends would duplicate work.
func (*PreemptBackend) Declines(params sched.Params) (reason string, declined bool) {
	if !hasBudget(params.MaxPreemptions) {
		return "no preemption budgets (rectpack covers the non-preemptive regime)", true
	}
	return "", false
}

// preemptGenomes returns the 20 splitting genomes: floor-bearing ones,
// since only a quality floor (or an all-or-nothing width demand) can
// block a core and so trigger a preemption — cap-only genomes always
// snap down to some width and never split. Ascending orders race
// alongside the usual decreasing ones because the preemption-budget
// policy puts budgets on the larger cores: with small cores in front, the
// budgeted giants are the low-priority victims, and a floor-blocked small
// core can split a giant's rectangle and run in the gap — the same
// squeeze the classic scheduler's preempt-larger policy exploits.
func preemptGenomes(p *pack.Packer) []*pack.Genome {
	full := p.Uniform(p.TAMWidth)
	floors := [][]int{
		p.PerCore(pack.QualityWidth(25)), p.PerCore(pack.QualityWidth(50)), p.PerCore(pack.QualityWidth(100)),
		p.PerCore(pack.MinAreaWidth), p.PerCore((*pareto.Set).MaxParetoWidth),
	}
	var out []*pack.Genome
	for _, less := range []func(a, b *pack.Core) bool{pack.ByTime, pack.ByArea, pack.Ascending(pack.ByTime), pack.Ascending(pack.ByArea)} {
		perm := p.Order(less)
		for _, f := range floors {
			out = append(out, &pack.Genome{Perm: perm, Cap: full, Floor: f, Preempt: true})
		}
	}
	return out
}

// Schedule packs the optimizer's SOC with rectpack's 26 genomes followed
// by the 20 splitting ones and returns the shortest placeable schedule.
// Ties go to the earlier genome, so with the same parameters it is never
// worse than rectpack and prefers an unsplit layout.
func (*PreemptBackend) Schedule(ctx context.Context, opt *sched.Optimizer, params sched.Params) (*sched.Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "rectpack/preempt")
	defer span.End()
	defer obs.TimeStage("rectpack/preempt")()
	if err := chaos.InjectContext(ctx, sitePreempt); err != nil {
		return nil, err
	}
	p, err := pack.New(ctx, Name, opt, params)
	if err != nil {
		return nil, err
	}
	genomes := append(p.Portfolio(p.TAMWidth), preemptGenomes(p)...)
	sch, res, err := p.Best(ctx, genomes, "every preemptive strategy failed")
	if err != nil {
		return nil, err
	}
	span.SetAttr("strategies", len(genomes))
	span.SetAttr("splits", res.Splits)
	span.SetAttr("makespan", sch.Makespan)
	return sch, nil
}

func init() {
	sched.RegisterBackend(NewPreempt())
	chaos.RegisterSites(sitePreempt)
}
