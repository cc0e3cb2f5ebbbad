package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/lb"
	"repro/internal/sched"
	"repro/internal/schedio"
	"repro/internal/soc"

	// The portfolio races every registered backend.
	_ "repro/internal/anneal"
	_ "repro/internal/rectpack"
)

// raceSlot is one generated scenario shape of the race workload.
type raceSlot struct {
	cfg     bench.SynthConfig
	width   int
	preempt int // preemptions granted to the larger cores (0: none)
}

// raceSlots are the generated scenario shapes raced beside the corpus,
// each raceSlotCopies times; the seed picks every copy's SOC and anneal
// seed. They carry no BIST engines, hierarchy or power budget: LB(W)
// ignores all three, so with them the gap to it would swing with the
// seed. The corpus covers those regimes.
var raceSlots = []raceSlot{
	{bench.SynthConfig{Cores: 12, Profile: "mixed", BISTEngines: -1}, 16, 0},
	{bench.SynthConfig{Cores: 16, Profile: "mixed", BISTEngines: -1}, 24, 0},
	{bench.SynthConfig{Cores: 20, Profile: "mixed", BISTEngines: -1}, 32, 0},
	{bench.SynthConfig{Cores: 16, Profile: "combo"}, 16, 0},
	{bench.SynthConfig{Cores: 24, Profile: "combo"}, 24, 0},
	{bench.SynthConfig{Cores: 10, Profile: "longchain", BISTEngines: -1}, 16, 0},
	{bench.SynthConfig{Cores: 16, Profile: "longchain", BISTEngines: -1}, 24, 0},
	{bench.SynthConfig{Cores: 16, Profile: "mixed", BISTEngines: -1}, 24, 2},
	{bench.SynthConfig{Cores: 12, Profile: "longchain", BISTEngines: -1}, 16, 1},
	{bench.SynthConfig{Cores: 20, Profile: "combo"}, 32, 2},
}

// raceSlotCopies is how many generated scenarios each slot gives: with
// the 35 corpus scenarios, 105 distinct ops, so a pass (one segment)
// holds the minOps a p90 needs.
const raceSlotCopies = 7

// raceInput is one race op: a portfolio search for one (SOC, params).
type raceInput struct {
	Name   string
	SOC    *soc.SOC
	Params sched.Params
	// Golden is the classic makespan frozen in the corpus goldens, which
	// the portfolio must never exceed; 0 for generated scenarios.
	Golden int64
}

// raceInputs generates the race workload's ops: all corpus scenarios with
// their power and preemption regimes applied, plus raceSlotCopies
// generated scenarios per slot. goldenDir holds the corpus goldens.
func raceInputs(seed int64, goldenDir string) ([]raceInput, error) {
	var out []raceInput
	for _, sc := range corpus.All() {
		s := sc.Build()
		p, err := sc.ResolveParams(s)
		if err != nil {
			return nil, fmt.Errorf("race: %s: %w", sc.Name, err)
		}
		p.Backend = "portfolio"
		golden, err := goldenMakespan(filepath.Join(goldenDir, sc.Name, corpus.LayerSchedule))
		if err != nil {
			return nil, err
		}
		out = append(out, raceInput{sc.Name, s, p, golden})
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < raceSlotCopies; c++ {
		for k, slot := range raceSlots {
			cfg := slot.cfg
			cfg.Name = fmt.Sprintf("race%d.%d", k, c)
			cfg.Seed = rng.Int63()
			s := bench.Synth(cfg)
			p := sched.Params{TAMWidth: slot.width, Backend: "portfolio", Workers: 1, Seed: 1 + rng.Int63n(1<<20)}
			if slot.preempt > 0 {
				pre, err := sched.LargerCorePreemptions(s, sched.DefaultMaxWidth, slot.preempt)
				if err != nil {
					return nil, fmt.Errorf("race: %s: %w", cfg.Name, err)
				}
				p.MaxPreemptions = pre
			}
			out = append(out, raceInput{cfg.Name, s, p, 0})
		}
	}
	return out, nil
}

// goldenMakespan reads the makespan of a frozen schedule document.
func goldenMakespan(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("race: golden: %w", err)
	}
	var f schedio.File
	if err := json.Unmarshal(b, &f); err != nil {
		return 0, fmt.Errorf("race: golden %s: %w", path, err)
	}
	return f.Makespan, nil
}

// raceWant is a checked race op's output: the makespan and the hash of
// its schedio bytes, which every timed repeat must reproduce.
type raceWant struct {
	makespan int64
	hash     uint64
	gap      float64 // (makespan/LB(W) − 1)·100
	optimal  bool    // makespan == LB(W)
	// strictErr is schedio.Load's rejection of a schedule whose params
	// the format cannot record (see loadSaved); nil when Load accepted it.
	strictErr error
}

// checkRace runs one race op outside the timed window and checks it:
// CheckInvariants and Optimizer.Verify pass, the saved bytes round-trip
// through schedio.Load, the makespan is at least LB(W), and on corpus
// scenarios it is at most the frozen classic makespan.
func checkRace(ctx context.Context, opt *sched.Optimizer, in raceInput) (raceWant, error) {
	sch, err := opt.ScheduleBackend(ctx, in.Params)
	if err != nil {
		return raceWant{}, err
	}
	if err := sched.CheckInvariants(in.SOC, sch); err != nil {
		return raceWant{}, err
	}
	if err := opt.Verify(sch); err != nil {
		return raceWant{}, err
	}
	var buf bytes.Buffer
	if err := schedio.Save(&buf, sch); err != nil {
		return raceWant{}, err
	}
	loaded, strictErr, err := loadSaved(buf.Bytes(), in)
	if err != nil {
		return raceWant{}, fmt.Errorf("load saved schedule: %w", err)
	}
	var again bytes.Buffer
	if err := schedio.Save(&again, loaded); err != nil {
		return raceWant{}, err
	}
	if loaded.Makespan != sch.Makespan || !bytes.Equal(buf.Bytes(), again.Bytes()) {
		return raceWant{}, fmt.Errorf("schedio round trip changed the schedule")
	}
	b, err := lb.FromSets(opt.ParetoSets(), in.Params.TAMWidth, in.Params.Defaults().MaxWidth)
	if err != nil {
		return raceWant{}, err
	}
	if sch.Makespan < b.Value() {
		return raceWant{}, fmt.Errorf("makespan %d below LB %d", sch.Makespan, b.Value())
	}
	if in.Golden > 0 && sch.Makespan > in.Golden {
		return raceWant{}, fmt.Errorf("makespan %d above the frozen classic makespan %d", sch.Makespan, in.Golden)
	}
	return raceWant{
		makespan:  sch.Makespan,
		hash:      hashBytes(buf.Bytes()),
		gap:       (float64(sch.Makespan)/float64(b.Value()) - 1) * 100,
		optimal:   sch.Makespan == b.Value(),
		strictErr: strictErr,
	}, nil
}

// loadSaved loads a saved race schedule through schedio.Load against its
// SOC. The schedio format records no IgnoreHierarchy flag, so Load
// re-verifies such a schedule with the implicit parent/child constraints
// on and rejects the overlaps the flag allows. Only for an op that sets
// the flag, a rejected strict load is retried against a copy of the SOC
// with every Parent cleared (the constraint set the flag selects); the
// flag is then restored and the schedule re-verified against the real
// SOC. The strict load's error comes back beside the schedule, so the
// run still reports the format's loss.
func loadSaved(doc []byte, in raceInput) (*sched.Schedule, error, error) {
	loaded, strictErr := schedio.Load(bytes.NewReader(doc), in.SOC)
	if strictErr == nil || !in.Params.IgnoreHierarchy {
		return loaded, nil, strictErr
	}
	flat := in.SOC.Clone()
	for _, c := range flat.Cores {
		c.Parent = 0
	}
	loaded, err := schedio.Load(bytes.NewReader(doc), flat)
	if err != nil {
		return nil, strictErr, err
	}
	loaded.Params.IgnoreHierarchy = true
	if err := sched.Verify(in.SOC, loaded); err != nil {
		return nil, strictErr, err
	}
	return loaded, strictErr, nil
}

// raceCheckAll checks every race op once and returns the expected
// outputs, the per-op errors, lb_gap_pct and the LB-optimal share.
func raceCheckAll(ctx context.Context, inputs []raceInput, opts []*sched.Optimizer) ([]raceWant, []error, float64, float64) {
	want := make([]raceWant, len(inputs))
	errs := make([]error, len(inputs))
	var gap, optimal float64
	for i, in := range inputs {
		want[i], errs[i] = checkRace(ctx, opts[i], in)
		gap += want[i].gap
		if want[i].optimal {
			optimal++
		}
	}
	n := float64(len(inputs))
	return want, errs, gap / n, optimal / n
}

// runRace runs the race workload: portfolio best-schedule searches, each
// followed by schedio.Save of the winner.
func runRace(cfg config, tr *tracer) (*result, error) {
	inputs, err := raceInputs(cfg.seed, cfg.golden)
	if err != nil {
		return nil, err
	}
	socs := make([]*soc.SOC, len(inputs))
	for i, in := range inputs {
		socs[i] = in.SOC
	}
	r := &result{Workload: "race", Seed: cfg.seed}
	setup, opts, nSOCs, err := setupOptimizers(tr, socs)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	want, errs, lbGap, optimal := raceCheckAll(ctx, inputs, opts)
	r.Attempted += len(inputs)
	var strictLoadErrs int
	for i, err := range errs {
		if err != nil {
			r.fail("race %s: %v", inputs[i].Name, err)
		} else if want[i].strictErr != nil {
			strictLoadErrs++
			r.Notes = append(r.Notes, fmt.Sprintf("schedio format loss: %s: the saved file records no IgnoreHierarchy, so schedio.Load rejects it (%v); checked against the hierarchy-free SOC instead", inputs[i].Name, want[i].strictErr))
		}
	}

	var (
		buf          bytes.Buffer
		saves, saveB int
		saveTime     time.Duration
		before       = readGlobals()
	)
	tr.resetCost()
	w := opLoop(cfg.seconds, passOrder(cfg.seed, len(inputs)), func(i int, op int64) time.Duration {
		in := inputs[i]
		root := tr.start("op", op, -1, false)
		id := tr.start("sched.portfolio", op, root, true)
		t0 := time.Now()
		sch, err := opts[i].ScheduleBackend(ctx, in.Params)
		d := time.Since(t0)
		tr.end(id)
		sid := tr.start("schedio.save", op, root, false)
		t1 := time.Now()
		buf.Reset()
		if err == nil {
			err = schedio.Save(&buf, sch)
		}
		ds := time.Since(t1)
		tr.end(sid)
		saves++
		saveB += buf.Len()
		saveTime += ds
		r.Attempted++
		if err != nil {
			r.fail("race %s op %d: %v", in.Name, op, err)
		} else if errs[i] != nil {
			r.fail("race %s op %d: its check failed", in.Name, op)
		} else if sch.Makespan != want[i].makespan || hashBytes(buf.Bytes()) != want[i].hash {
			r.fail("race %s op %d: makespan %d, checked %d; bytes differ from the checked schedule", in.Name, op, sch.Makespan, want[i].makespan)
		}
		tr.end(root)
		return d + ds
	})
	after := readGlobals()
	heap := heapLiveMB()
	runtime.KeepAlive(opts)

	r.EndToEnd = endToEnd(w, setup, heap, lbGap, false)
	r.Notes = append(r.Notes, fmt.Sprintf("ops=%d distinct=%d socs=%d passes=%d window_s=%.3f", len(w.all()), len(inputs), nSOCs, len(w.segs), w.elapsed.Seconds()))
	if tr != nil {
		agg := aggregate(tr.snapshot())
		pb, pf := agg["pareto.build"], agg["sched.portfolio"]
		vals := map[string]float64{
			"pareto.build.count":               float64(pb.Count),
			"pareto.build.self_ms":             pb.MeanSelfMs(),
			"pareto.build.alloc_mb":            pb.MeanAllocMB(),
			"sched.portfolio.count":            float64(pf.Count),
			"sched.portfolio.ms":               pf.MeanMs(),
			"sched.portfolio.alloc_mb":         pf.MeanAllocMB(),
			"sched.portfolio.lb_optimal_ratio": optimal,
			"schedio.save.us":                  ratio(float64(saveTime.Microseconds()), float64(saves)),
			"schedio.bytes":                    ratio(float64(saveB), float64(saves)),
			"schedio.strict_load_errors":       float64(strictLoadErrs),
			"trace.throughput_ops_s":           w.throughput(),
			"trace.overhead_pct":               tr.overheadPct(w.elapsed, 1),
			"trace.spans":                      float64(len(tr.snapshot())),
		}
		racerLayers(vals, before, after)
		var racerMs float64
		for _, b := range racers {
			racerMs += vals[b+".ms"] * vals[b+".count"]
		}
		vals["sched.portfolio.self_ms"] = pf.MeanMs() - ratio(racerMs, float64(pf.Count))
		r.Layers = fillLayers(vals, map[string]int{"sched.portfolio.ms": pf.Count, "pareto.build.self_ms": pb.Count})
	}
	return r, nil
}
