package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/datavol"
	"repro/internal/lb"
	"repro/internal/sched"
	"repro/internal/soc"
)

// The sweep workload's widths: the built-ins are swept over every
// window of sweepSpan widths tiling [sweepLo, sweepHi]; each generated SOC
// over one seeded window in each quarter of that range.
const (
	sweepLo, sweepHi = 8, 63
	sweepSpan        = 4
	// sweepPerShape is the number of generated SOCs per slot.
	sweepPerShape = 2
)

// sweepSlots are the generated SOC shapes of the sweep workload; the
// seed picks sweepPerShape SOCs per shape, so every seed draws the same
// mix of profiles and sizes. They are small, so the built-ins (the
// paper's SOCs, fixed) carry most of the work and the seed moves the
// workload's cost little. They carry no BIST engines and no hierarchy:
// LB(W) ignores both, so on such SOCs the gap to it measures the bound's
// looseness and swings by tens of points from one seed to the next.
var sweepSlots = func() []bench.SynthConfig {
	var out []bench.SynthConfig
	for _, profile := range []string{"mixed", "combo", "longchain"} {
		for _, cores := range []int{12, 16} {
			out = append(out, bench.SynthConfig{Cores: cores, Profile: profile, BISTEngines: -1})
		}
	}
	return out
}()

// sweepInput is one sweep op: a width sweep of one SOC over [Lo, Hi].
type sweepInput struct {
	Name   string
	SOC    *soc.SOC
	Lo, Hi int
}

// sweepInputs generates the sweep workload's ops from the seed.
func sweepInputs(seed int64) []sweepInput {
	rng := rand.New(rand.NewSource(seed))
	var out []sweepInput
	for _, s := range bench.All() {
		for lo := sweepLo; lo+sweepSpan-1 <= sweepHi; lo += sweepSpan {
			out = append(out, sweepInput{s.Name, s, lo, lo + sweepSpan - 1})
		}
	}
	windows := (sweepHi - sweepLo + 1) / sweepSpan
	for k := 0; k < sweepPerShape*len(sweepSlots); k++ {
		cfg := sweepSlots[k%len(sweepSlots)]
		cfg.Name = fmt.Sprintf("sweep%d", k)
		cfg.Seed = rng.Int63()
		s := bench.Synth(cfg)
		for q := 0; q < 4; q++ {
			lo := sweepLo + sweepSpan*(q*windows/4+rng.Intn(windows/4))
			out = append(out, sweepInput{s.Name, s, lo, lo + sweepSpan - 1})
		}
	}
	return out
}

func (in sweepInput) config() datavol.Config {
	return datavol.Config{WidthLo: in.Lo, WidthHi: in.Hi, Workers: 1, Params: sched.Params{Workers: 1}}
}

// checkSweep runs one sweep op outside the timed window and checks it:
// every sample has T(W) >= LB(W) and D = W·T, and the MinTimeWidth
// schedule, re-derived from the optimizer, reproduces T_min and passes
// Verify and CheckInvariants. It returns the sweep and the op's mean gap
// to LB(W) in percent.
func checkSweep(opt *sched.Optimizer, in sweepInput) (*datavol.Sweep, float64, error) {
	sw, err := datavol.RunWith(opt, in.config())
	if err != nil {
		return nil, 0, err
	}
	if len(sw.Samples) != in.Hi-in.Lo+1 {
		return nil, 0, fmt.Errorf("%d samples for widths [%d,%d]", len(sw.Samples), in.Lo, in.Hi)
	}
	var gap float64
	for _, s := range sw.Samples {
		b, err := lb.FromSets(opt.ParetoSets(), s.TAMWidth, sched.DefaultMaxWidth)
		if err != nil {
			return nil, 0, err
		}
		if s.Time < b.Value() {
			return nil, 0, fmt.Errorf("W=%d: T=%d below LB=%d", s.TAMWidth, s.Time, b.Value())
		}
		if s.Volume != int64(s.TAMWidth)*s.Time {
			return nil, 0, fmt.Errorf("W=%d: D=%d is not W·T=%d", s.TAMWidth, s.Volume, int64(s.TAMWidth)*s.Time)
		}
		gap += (float64(s.Time)/float64(b.Value()) - 1) * 100
	}
	best, err := opt.SweepBest(sched.Params{TAMWidth: sw.MinTimeWidth, Workers: 1}, nil, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("re-derive W=%d: %w", sw.MinTimeWidth, err)
	}
	if best.Makespan != sw.MinTime {
		return nil, 0, fmt.Errorf("re-derived W=%d makespan %d, sweep says %d", sw.MinTimeWidth, best.Makespan, sw.MinTime)
	}
	if err := opt.Verify(best); err != nil {
		return nil, 0, err
	}
	if err := sched.CheckInvariants(opt.SOC(), best); err != nil {
		return nil, 0, err
	}
	return sw, gap / float64(len(sw.Samples)), nil
}

// sameSweep reports whether two sweeps carry identical samples.
func sameSweep(a, b *datavol.Sweep) bool {
	if a == nil || b == nil || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			return false
		}
	}
	return a.MinTimeWidth == b.MinTimeWidth && a.MinVolumeWidth == b.MinVolumeWidth
}

// sweepLBGap is the sweep workload's lb_gap_pct for a seed, from the
// check pass alone: it is a pure function of the generated inputs.
func sweepLBGap(inputs []sweepInput, opts []*sched.Optimizer) (float64, []*datavol.Sweep, []error) {
	want := make([]*datavol.Sweep, len(inputs))
	errs := make([]error, len(inputs))
	var sum float64
	for i, in := range inputs {
		sw, gap, err := checkSweep(opts[i], in)
		want[i], errs[i] = sw, err
		sum += gap
	}
	return sum / float64(len(inputs)), want, errs
}

// runSweep runs the sweep workload: Problem 3 width sweeps
// (datavol.RunWith over the default (α, δ, slack) grid).
func runSweep(cfg config, tr *tracer) (*result, error) {
	inputs := sweepInputs(cfg.seed)
	socs := make([]*soc.SOC, len(inputs))
	for i, in := range inputs {
		socs[i] = in.SOC
	}
	r := &result{Workload: "sweep", Seed: cfg.seed}
	setup, opts, nSOCs, err := setupOptimizers(tr, socs)
	if err != nil {
		return nil, err
	}
	lbGap, want, errs := sweepLBGap(inputs, opts)
	r.Attempted += len(inputs)
	for i, err := range errs {
		if err != nil {
			r.fail("sweep %s [%d,%d]: %v", inputs[i].Name, inputs[i].Lo, inputs[i].Hi, err)
		}
	}

	var widths int
	tr.resetCost()
	w := opLoop(cfg.seconds, passOrder(cfg.seed, len(inputs)), func(i int, op int64) time.Duration {
		in := inputs[i]
		root := tr.start("op", op, -1, false)
		id := tr.start("datavol.sweep", op, root, true)
		t0 := time.Now()
		sw, err := datavol.RunWith(opts[i], in.config())
		d := time.Since(t0)
		tr.end(id)
		r.Attempted++
		widths += in.Hi - in.Lo + 1
		if err != nil || errs[i] != nil || !sameSweep(sw, want[i]) {
			r.fail("sweep %s op %d: output differs from the checked sweep (err %v)", in.Name, op, err)
		}
		tr.end(root)
		return d
	})
	heap := heapLiveMB()
	runtime.KeepAlive(opts)

	r.EndToEnd = endToEnd(w, setup, heap, lbGap, false)
	r.Notes = append(r.Notes, fmt.Sprintf("ops=%d distinct=%d socs=%d passes=%d widths=%d window_s=%.3f", len(w.all()), len(inputs), nSOCs, len(w.segs), widths, w.elapsed.Seconds()))
	if tr != nil {
		agg := aggregate(tr.snapshot())
		pb, dv := agg["pareto.build"], agg["datavol.sweep"]
		r.Layers = fillLayers(map[string]float64{
			"pareto.build.count":     float64(pb.Count),
			"pareto.build.self_ms":   pb.MeanSelfMs(),
			"pareto.build.alloc_mb":  pb.MeanAllocMB(),
			"datavol.sweep.count":    float64(dv.Count),
			"datavol.sweep.self_ms":  dv.MeanSelfMs(),
			"datavol.sweep.alloc_mb": dv.MeanAllocMB(),
			"datavol.widths":         float64(widths),
			"trace.throughput_ops_s": w.throughput(),
			"trace.overhead_pct":     tr.overheadPct(w.elapsed, 1),
			"trace.spans":            float64(len(tr.snapshot())),
		}, map[string]int{"datavol.sweep.self_ms": dv.Count, "pareto.build.self_ms": pb.Count})
	}
	return r, nil
}
