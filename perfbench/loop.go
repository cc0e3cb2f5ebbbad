package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/sched"
	"repro/internal/soc"
	"repro/internal/socfile"
)

const (
	// setupReps is the fewest times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 15
	// A set-up faster than setupBudget/setupReps repeats until about
	// setupBudget has passed, at most maxSetupReps times, so a set-up of a
	// few milliseconds still gives a steady median.
	setupBudget  = time.Second
	maxSetupReps = 200
)

// minOps is the floor on the distinct ops of a sequential workload: a
// pass is one segment, and with 100 samples in each, ten lie beyond p90,
// so latency_p90_ms is always reportable.
const minOps = 100

// timeSetup runs build repeatedly and returns setup_s: the median wall
// time, with the repetition count as its sample count. The first
// repetition's time fixes the count. Each repetition starts from a
// collected heap. build is told which repetition is the last; its state
// is the one the run keeps.
func timeSetup(build func(last bool) error) (metric, error) {
	var secs []float64
	reps := setupReps
	for r := 0; r < reps; r++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(r == reps-1); err != nil {
			return metric{}, err
		}
		d := time.Since(t0)
		secs = append(secs, d.Seconds())
		if r == 0 {
			reps = setupRepsFor(d)
		}
	}
	return metric{"setup_s", "s", median(secs), reps}, nil
}

// setupRepsFor is how many times a set-up whose first repetition took d
// is repeated.
func setupRepsFor(d time.Duration) int {
	return min(maxSetupReps, max(setupReps, int(setupBudget/max(d, 1))))
}

// passOrder is the seeded order in which every pass visits the n
// distinct ops.
func passOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// opLoop runs whole passes over the ops in order until at least seconds
// have elapsed, and at least one pass, so every run measures each
// distinct op equally often. Each pass is one segment of the window. do
// runs one op and returns the latency of its measured call; checks it
// makes after that call are outside the latency but inside the pass.
func opLoop(seconds float64, order []int, do func(i int, op int64) time.Duration) window {
	limit := time.Duration(seconds * float64(time.Second))
	mem := readMem()
	start := time.Now()
	var w window
	var op int64
	for len(w.segs) == 0 || time.Since(start) < limit {
		p0 := time.Now()
		seg := segment{lat: make([]time.Duration, 0, len(order))}
		for _, i := range order {
			seg.lat = append(seg.lat, do(i, op))
			op++
		}
		seg.wall = time.Since(p0)
		w.segs = append(w.segs, seg)
	}
	w.elapsed = time.Since(start)
	w.allocMB = allocMBSince(mem)
	return w
}

// buildOptimizers builds one optimizer per SOC, recording a
// pareto.build span (Pareto staircases plus wrapper designs) around each.
func buildOptimizers(tr *tracer, socs []*soc.SOC) ([]*sched.Optimizer, error) {
	opts := make([]*sched.Optimizer, len(socs))
	for i, s := range socs {
		id := tr.start("pareto.build", -1, -1, true)
		opt, err := sched.New(s, sched.DefaultMaxWidth)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", s.Name, err)
		}
		opts[i] = opt
	}
	return opts, nil
}

// setupOptimizers is the set-up of the sequential workloads: it builds
// one optimizer per distinct SOC, repeatedly, and returns setup_s, each
// op's optimizer, and the distinct SOC count. Only the last repetition is
// traced.
func setupOptimizers(tr *tracer, socs []*soc.SOC) (metric, []*sched.Optimizer, int, error) {
	uniq, idx := distinctSOCs(socs)
	var built []*sched.Optimizer
	setup, err := timeSetup(func(last bool) error {
		var t *tracer
		if last {
			t = tr
		}
		var err error
		built, err = buildOptimizers(t, uniq)
		return err
	})
	if err != nil {
		return metric{}, nil, 0, err
	}
	opts := make([]*sched.Optimizer, len(socs))
	for i := range socs {
		opts[i] = built[idx[i]]
	}
	return setup, opts, len(uniq), nil
}

// distinctSOCs maps each input to an index into a list of distinct SOCs
// (by fingerprint), so set-up builds each SOC's optimizer once.
func distinctSOCs(socs []*soc.SOC) (uniq []*soc.SOC, idx []int) {
	seen := map[string]int{}
	for _, s := range socs {
		fp := socfile.Fingerprint(s)
		j, ok := seen[fp]
		if !ok {
			j = len(uniq)
			seen[fp] = j
			uniq = append(uniq, s)
		}
		idx = append(idx, j)
	}
	return uniq, idx
}

// hashBytes is the FNV-64a hash outputs are compared by.
func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
