package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/schedio"
	"repro/internal/soc"
	"repro/internal/socfile"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		pct  float64
		want bool
	}{
		{20, 50, true}, {19, 50, false},
		{100, 90, true}, {99, 90, false},
		{1000, 99, true}, {999, 99, false},
	} {
		if got := percentileOK(c.n, c.pct); got != c.want {
			t.Errorf("percentileOK(%d, %v) = %v, want %v", c.n, c.pct, got, c.want)
		}
	}
}

func TestSetupRepsFor(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int
	}{{time.Second, setupReps}, {70 * time.Millisecond, setupReps}, {10 * time.Millisecond, 100}, {0, maxSetupReps}} {
		if got := setupRepsFor(c.d); got != c.want {
			t.Errorf("setupRepsFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 10; i >= 1; i-- {
		d = append(d, time.Duration(i))
	}
	s := sortedCopy(d)
	for pct, want := range map[float64]time.Duration{50: 5, 90: 9, 100: 10, 1: 1} {
		if got := percentile(s, pct); got != want {
			t.Errorf("p%v = %v, want %v", pct, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples must be 0")
	}
}

func TestSelfTimesUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a
		{Name: "c", Parent: 0, Start: 60, End: 70},
		{Name: "d", Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "e", Parent: 2, Start: 25, End: 35},  // grandchild: only b loses it
	}
	want := []int64{100 - (40 + 10 + 10), 20, 30 - 10, 10, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s self = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	agg := aggregate(spans)
	if op := agg["op"]; op.Count != 1 || op.SelfMs != 40/1e6 {
		t.Errorf("aggregate op = %+v", op)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0, -1, true)
	tr.end(id)
	tr.resetCost()
	if id != -1 {
		t.Fatalf("nil tracer id = %d", id)
	}
}

func TestTracerRecordsSpansAndAllocs(t *testing.T) {
	tr := newTracer()
	root := tr.start("op", 7, -1, false)
	child := tr.start("work", 7, root, true)
	sink = make([]byte, 1<<20)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].AllocBytes < 1<<20 {
		t.Errorf("child alloc = %d, want >= 1 MiB", spans[1].AllocBytes)
	}
	if spans[0].End < spans[1].End {
		t.Error("root ended before its child")
	}
	path := t.TempDir() + "/trace.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
}

var sink []byte

func TestDeltaAccounting(t *testing.T) {
	before := totals(map[string]obs.HistSnapshot{"anneal": {Count: 2, MeanNs: 500}})
	after := totals(map[string]obs.HistSnapshot{"anneal": {Count: 5, MeanNs: 1000}, "classic": {Count: 1, MeanNs: 40}})
	d := after.since(before)
	if d["anneal"].count != 3 || d["anneal"].ns != 4000 || d["classic"].count != 1 || d["classic"].ns != 40 {
		t.Fatalf("delta = %+v", d)
	}
	vals := map[string]float64{}
	racerLayers(vals,
		globals{backends: before, races: map[string]sched.BackendRaceStats{"anneal": {Won: 1, Lost: 1}}},
		globals{backends: after, races: map[string]sched.BackendRaceStats{"anneal": {Won: 3, Lost: 2, Declined: 4}}})
	if vals["anneal.count"] != 3 || vals["anneal.ms"] != 4000/1e6/3 || vals["anneal.win_ratio"] != 2.0/3 || vals["anneal.declined"] != 4 {
		t.Fatalf("racer layers = %v", vals)
	}
	if vals["rectpack.count"] != 0 || vals["rectpack.win_ratio"] != 0 {
		t.Fatalf("a racer with no runs must report 0: %v", vals)
	}
}

func TestResultLine(t *testing.T) {
	w := window{elapsed: time.Second, segs: []segment{{lat: make([]time.Duration, 1000), wall: time.Second}}}
	r := &result{Workload: "serve", Attempted: 1000, EndToEnd: endToEnd(w, metric{"setup_s", "s", 0.5, setupReps}, 10, 1.5, true)}
	var names []string
	for _, m := range r.EndToEnd {
		names = append(names, m.Name)
	}
	if !strings.Contains(strings.Join(names, ","), "latency_p99_ms") {
		t.Fatalf("1000 samples must report p99: %v", names)
	}
	line := resultJSON([]*result{r}, false)
	if !line.Correct || len(line.Metrics) != 7 {
		t.Fatalf("line = %+v", line)
	}
	if _, ok := line.Metrics["latency_p99_ms"]; ok {
		t.Error("latency_p99_ms must stay out of the result line")
	}
	r2 := &result{Workload: "sweep", Attempted: 3, Failed: 1, EndToEnd: r.EndToEnd}
	line = resultJSON([]*result{r, r2}, false)
	if line.Correct || line.Failed != 1 || line.Attempted != 1003 {
		t.Fatalf("all-workload line = %+v", line)
	}
	if _, ok := line.Metrics["sweep.setup_s"]; !ok {
		t.Error("all-workload metrics must be prefixed by the workload")
	}
	var buf bytes.Buffer
	if err := writeResultJSON(&buf, line); err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil || len(back) != 4 {
		t.Fatalf("result line keys = %v (%v)", back, err)
	}
}

// TestSegmentMedians pins the window statistics: each timing metric is
// taken per segment and the median over segments reported, so one slow
// segment does not move it.
func TestSegmentMedians(t *testing.T) {
	seg := func(ms time.Duration, n int, wall time.Duration) segment {
		s := segment{wall: wall}
		for i := 1; i <= n; i++ {
			s.lat = append(s.lat, ms*time.Duration(i)*time.Millisecond)
		}
		return s
	}
	w := window{segs: []segment{seg(1, 100, time.Second), seg(50, 100, 50*time.Second), seg(1, 100, time.Second)}}
	if got := w.throughput(); got != 100 {
		t.Errorf("throughput = %v, want 100 ops over the 1 s median segment", got)
	}
	if p50, p90 := w.latency(50), w.latency(90); p50 != 50 || p90 != 90 {
		t.Errorf("p50, p90 = %v, %v, want 50, 90 from the unslowed segments", p50, p90)
	}
	if !w.percentileOK(90) || w.percentileOK(99) {
		t.Error("100 samples per segment support p90 and not p99")
	}
	if len(w.all()) != 300 {
		t.Errorf("all() has %d latencies, want 300", len(w.all()))
	}
}

// TestServeSegments checks the serve window's split: contiguous runs of
// at least serveSegmentUnits sent units, each timed from its first send
// to its last answer.
func TestServeSegments(t *testing.T) {
	n := 2*serveSegmentUnits + 7
	var sent []int
	began, ended := make([]time.Duration, n+1), make([]time.Duration, n+1)
	for u := 0; u <= n; u++ {
		if u == 3 {
			continue // a unit the guard stopped
		}
		sent = append(sent, u)
		began[u], ended[u] = time.Duration(u), time.Duration(u+2)
	}
	segs := serveSegments(sent, began, ended)
	if len(segs) != 2 {
		t.Fatalf("%d segments, want 2", len(segs))
	}
	half := (len(sent) + 1) / 2 // the second segment starts at sent[half]
	if w0, w1 := segs[0].wall, segs[1].wall; w0 != ended[sent[half-1]]-began[sent[0]] || w1 != ended[n]-began[sent[half]] {
		t.Errorf("segment walls %v, %v", w0, w1)
	}
	if serveSegments(sent[:10], began, ended)[0].wall != ended[sent[9]] {
		t.Error("fewer than serveSegmentUnits units must make one segment")
	}
	if serveSegments(nil, nil, nil) != nil {
		t.Error("no units must make no segments")
	}
}

// TestSequentialPassesHoldMinOps keeps each pass of sweep and race, one
// segment, large enough for latency_p90_ms.
func TestSequentialPassesHoldMinOps(t *testing.T) {
	rin, err := raceInputs(1, "../testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	if len(sweepInputs(1)) < minOps || len(rin) < minOps {
		t.Fatalf("sweep has %d ops, race %d; each pass needs %d", len(sweepInputs(1)), len(rin), minOps)
	}
}

func TestLayerMetricsNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range layerMetrics() {
		if seen[m.Name] {
			t.Errorf("duplicate per-layer metric %s", m.Name)
		}
		seen[m.Name] = true
	}
}

// renderUnits draws n units from a fresh generator and renders them,
// counting the units of each class.
func renderUnits(t *testing.T, seed int64, n int) ([]string, map[string]int) {
	t.Helper()
	g, err := newServeGen(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	classes := map[string]int{}
	for _, u := range g.units(n) {
		classes[u[0].class]++
		for _, req := range u {
			out = append(out, req.path+" "+string(req.body))
		}
	}
	return out, classes
}

func TestServeMixIsSeeded(t *testing.T) {
	n := 2000
	a, classes := renderUnits(t, 3, n)
	b, _ := renderUnits(t, 3, n)
	c, _ := renderUnits(t, 4, n)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("one seed must give one request stream")
	}
	if strings.Join(a, "\n") == strings.Join(c, "\n") {
		t.Fatal("two seeds gave the same request stream")
	}
	single := (1 - uploadFrac) * (1 - batchFrac)
	want := map[string]float64{
		"upload": uploadFrac,
		"batch":  (1 - uploadFrac) * batchFrac,
		"best":   single * bestFrac,
		"hot":    single * (1 - bestFrac) * hotFrac,
		"cold":   single * (1 - bestFrac) * (1 - hotFrac),
	}
	for class, f := range want {
		if got := float64(classes[class]) / float64(n); math.Abs(got-f) > 0.03 {
			t.Errorf("class %s: share %.3f of %d units, want %.3f", class, got, n, f)
		}
	}
	if got := serveUnitCount(0); got != minServeUnits {
		t.Errorf("serveUnitCount(0) = %d, want the floor %d", got, minServeUnits)
	}
	if serveUnitCount(25) != serveUnitCount(25) || serveUnitCount(25) <= minServeUnits {
		t.Errorf("serveUnitCount(25) = %d", serveUnitCount(25))
	}
}

// TestColdParamsNeverRepeat checks that a cold draw never shares a cache
// key with the hot set or with an earlier cold draw.
func TestColdParamsNeverRepeat(t *testing.T) {
	g, err := newServeGen(5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range hotParams {
		seen[cacheKey("d695", p)] = true
	}
	cold := 0
	for cold < 500 {
		p, hot := g.params("d695")
		k := cacheKey("d695", p)
		if hot {
			if !seen[k] {
				t.Fatalf("hot params %+v outside the hot set", p)
			}
			continue
		}
		if seen[k] {
			t.Fatalf("cold params %+v repeat a drawn key", p)
		}
		seen[k] = true
		cold++
	}
}

func fingerprints(socs []*soc.SOC) []string {
	var out []string
	for _, s := range socs {
		out = append(out, socfile.Fingerprint(s))
	}
	return out
}

func sweepSOCs(in []sweepInput) []*soc.SOC {
	var out []*soc.SOC
	for _, x := range in {
		out = append(out, x.SOC)
	}
	return out
}

func raceSOCs(in []raceInput) []*soc.SOC {
	var out []*soc.SOC
	for _, x := range in {
		out = append(out, x.SOC)
	}
	return out
}

// sweepGap is the sweep workload's lb_gap_pct over its last n ops, which
// are generated ones (all ops when n is 0); raceGap is its race twin.
func sweepGap(t *testing.T, seed int64, n int) (float64, []string) {
	in := sweepInputs(seed)
	if n > 0 {
		in = in[len(in)-n:]
	}
	opts, err := buildOptimizers(nil, sweepSOCs(in))
	if err != nil {
		t.Fatal(err)
	}
	gap, _, errs := sweepLBGap(in, opts)
	return gap, errStrings(errs)
}

func raceGap(t *testing.T, seed int64, n int) (float64, []string) {
	in, err := raceInputs(seed, "../testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		in = in[len(in)-n:]
	}
	opts, err := buildOptimizers(nil, raceSOCs(in))
	if err != nil {
		t.Fatal(err)
	}
	_, errs, gap, _ := raceCheckAll(context.Background(), in, opts)
	return gap, errStrings(errs)
}

func errStrings(errs []error) []string {
	var out []string
	for _, e := range errs {
		out = append(out, fmt.Sprint(e))
	}
	return out
}

// TestSeedDeterminism pins the benchmark's input contract: one seed
// gives identical inputs and an identical lb_gap_pct on sweep and race,
// and a second seed gives different inputs. With -short the gap is taken
// over the generated ops alone.
func TestSeedDeterminism(t *testing.T) {
	sw1, sw2 := fingerprints(sweepSOCs(sweepInputs(1))), fingerprints(sweepSOCs(sweepInputs(1)))
	if strings.Join(sw1, ",") != strings.Join(sw2, ",") {
		t.Fatal("sweep: one seed gave two input sets")
	}
	if strings.Join(sw1, ",") == strings.Join(fingerprints(sweepSOCs(sweepInputs(2))), ",") {
		t.Fatal("sweep: two seeds gave the same inputs")
	}
	r1, err := raceInputs(1, "../testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	r1b, _ := raceInputs(1, "../testdata/golden")
	r2, _ := raceInputs(2, "../testdata/golden")
	if strings.Join(fingerprints(raceSOCs(r1)), ",") != strings.Join(fingerprints(raceSOCs(r1b)), ",") {
		t.Fatal("race: one seed gave two input sets")
	}
	if strings.Join(fingerprints(raceSOCs(r1)), ",") == strings.Join(fingerprints(raceSOCs(r2)), ",") {
		t.Fatal("race: two seeds gave the same inputs")
	}

	sweepN, raceN := 0, 0
	if testing.Short() {
		sweepN, raceN = 4, 2
	}
	g1, e1 := sweepGap(t, 5, sweepN)
	g2, e2 := sweepGap(t, 5, sweepN)
	if g1 != g2 || strings.Join(e1, ";") != strings.Join(e2, ";") || g1 <= 0 {
		t.Fatalf("sweep lb_gap_pct %v then %v (errors %v / %v)", g1, g2, e1, e2)
	}
	g1, e1 = raceGap(t, 5, raceN)
	g2, e2 = raceGap(t, 5, raceN)
	if g1 != g2 || strings.Join(e1, ";") != strings.Join(e2, ";") || g1 <= 0 {
		t.Fatalf("race lb_gap_pct %v then %v (errors %v / %v)", g1, g2, e1, e2)
	}
}

// TestIgnoreHierarchyRoundTrip pins the race check's handling of the
// schedio format's missing IgnoreHierarchy flag: the strict Load error
// is kept and reported, the relaxed load passes only for an op that sets
// the flag, and the same bytes still fail for one that does not.
func TestIgnoreHierarchyRoundTrip(t *testing.T) {
	all, err := raceInputs(1, "../testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	var in raceInput
	for _, x := range all {
		if x.Name == "demo8-w16-ignorehier" {
			in = x
		}
	}
	if !in.Params.IgnoreHierarchy {
		t.Fatal("corpus scenario demo8-w16-ignorehier not found or lost its flag")
	}
	opts, err := buildOptimizers(nil, []*soc.SOC{in.SOC})
	if err != nil {
		t.Fatal(err)
	}
	want, err := checkRace(context.Background(), opts[0], in)
	if err != nil {
		t.Fatal(err)
	}
	if want.strictErr == nil {
		t.Skip("schedio.Load now accepts the schedule; the relaxed load is unused")
	}
	sch, err := opts[0].ScheduleBackend(context.Background(), in.Params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := schedio.Save(&buf, sch); err != nil {
		t.Fatal(err)
	}
	strict := in
	strict.Params.IgnoreHierarchy = false
	if _, _, err := loadSaved(buf.Bytes(), strict); err == nil {
		t.Fatal("an op without IgnoreHierarchy accepted a hierarchy-violating file")
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for an unknown workload: %s", out.String())
	}
}

// TestRunServeTraced drives one whole traced serve run through the
// command's entry point.
func TestRunServeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("full serve run")
	}
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "serve", "--seed", "2", "--seconds", "0", "--trace", "1", "--trace-dir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errb.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(layerMetrics()) || line.Attempted < minServeUnits {
		t.Fatalf("traced line: %d metrics, %d attempted", len(line.Metrics), line.Attempted)
	}
	for _, name := range []string{"service.hot.count", "service.registry.builds", "trace.spans"} {
		if line.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, line.Metrics[name].Value)
		}
	}
}

// TestRunSweep drives one whole untraced sweep run.
func TestRunSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep run")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "sweep", "--seed", "3", "--seconds", "0"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errb.String(), out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	layers := layerMetrics()
	if len(doc.PerLayer) != len(layers) {
		t.Fatalf("per_layer lists %d metrics, the traced run prints %d", len(doc.PerLayer), len(layers))
	}
	for i, m := range layers {
		if doc.PerLayer[i].Name != m.Name || doc.PerLayer[i].Unit != m.Unit {
			t.Errorf("per_layer[%d] = %+v, printed %s %s", i, doc.PerLayer[i], m.Name, m.Unit)
		}
	}
	w := window{segs: []segment{{lat: make([]time.Duration, 10), wall: time.Second}}, elapsed: time.Second}
	line := resultJSON([]*result{{Attempted: 1, EndToEnd: endToEnd(w, metric{"setup_s", "s", 1, setupReps}, 1, 1, true)}}, false)
	if len(doc.EndToEnd) != len(line.Metrics) {
		t.Fatalf("end_to_end lists %d metrics, the result line carries %d", len(doc.EndToEnd), len(line.Metrics))
	}
	for _, m := range doc.EndToEnd {
		if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end_to_end %s (%s) printed as %+v", m.Name, m.Unit, got)
		}
	}
}
