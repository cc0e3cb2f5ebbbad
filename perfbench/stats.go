package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure. N is the sample count it was taken from
// (0 when the figure is not a sample statistic).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// result is one workload run's outcome.
type result struct {
	Workload  string
	Seed      int64
	Attempted int
	Failed    int
	Failures  []string // first few failure messages, for the report
	EndToEnd  []metric
	Layers    []metric
	Notes     []string // extra human-readable report lines
}

// fail records one failed op. Only the first few messages are kept.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// percentileOK applies the reporting rule: a percentile is reported only
// when at least ten samples lie beyond it.
func percentileOK(n int, pct float64) bool {
	return float64(n)*(100-pct)/100 >= 10
}

// percentile returns the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, pct float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(pct/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memMark is a before/after reading of the Go heap counters.
type memMark struct{ totalAlloc uint64 }

func readMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.TotalAlloc}
}

// allocMBSince returns the bytes allocated since the mark, in MB.
func allocMBSince(m memMark) float64 {
	return float64(readMem().totalAlloc-m.totalAlloc) / (1 << 20)
}

// heapLiveMB forces a collection and returns the live heap in MB: what
// the program's caches (and the benchmark's inputs) retain.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// window is what a timed measurement window produced: its per-op
// latencies split into segments, its wall time, and the bytes allocated
// inside it. A segment is one whole pass over the distinct ops on sweep
// and race, and one fixed run of units on serve.
type window struct {
	segs    []segment
	elapsed time.Duration
	allocMB float64
}

// segment is one stretch of a window: its op latencies and wall time.
type segment struct {
	lat  []time.Duration
	wall time.Duration
}

// all returns every op latency of the window, in order.
func (w window) all() []time.Duration {
	var out []time.Duration
	for _, s := range w.segs {
		out = append(out, s.lat...)
	}
	return out
}

// perSegment returns the median over segments of f. Every timing metric
// is taken per segment and the median reported, so a slow stretch of a
// shared machine moves a few segments rather than the figure.
func (w window) perSegment(f func(segment) float64) float64 {
	xs := make([]float64, len(w.segs))
	for i, s := range w.segs {
		xs[i] = f(s)
	}
	return median(xs)
}

// throughput is ops per second: the median segment's ops over its wall
// time.
func (w window) throughput() float64 {
	return w.perSegment(func(s segment) float64 { return ratio(float64(len(s.lat)), s.wall.Seconds()) })
}

// latency is the median over segments of each segment's nearest-rank
// percentile pct.
func (w window) latency(pct float64) float64 {
	return w.perSegment(func(s segment) float64 { return ms(percentile(sortedCopy(s.lat), pct)) })
}

// percentileOK reports whether every segment has enough samples for pct.
func (w window) percentileOK(pct float64) bool {
	for _, s := range w.segs {
		if !percentileOK(len(s.lat), pct) {
			return false
		}
	}
	return len(w.segs) > 0
}

// endToEnd renders the metrics every workload reports. Latency
// percentiles follow percentileOK within each segment; p90 is always
// emitted (the per-segment op floors guarantee enough samples) and p99
// only where it qualifies. Each sample count is the window's op count.
func endToEnd(w window, setup metric, heapMB, lbGap float64, withP99 bool) []metric {
	n := len(w.all())
	out := []metric{
		{"throughput_ops_s", "1/s", w.throughput(), n},
		{"latency_p50_ms", "ms", w.latency(50), n},
		{"latency_p90_ms", "ms", w.latency(90), n},
	}
	if withP99 && w.percentileOK(99) {
		out = append(out, metric{"latency_p99_ms", "ms", w.latency(99), n})
	}
	return append(out,
		setup,
		metric{"alloc_mb_per_op", "MB", ratio(w.allocMB, float64(n)), n},
		metric{"heap_live_mb", "MB", heapMB, 0},
		metric{"lb_gap_pct", "%", lbGap, 0},
	)
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable block for one workload run.
func report(w io.Writer, r *result, trace bool) {
	fmt.Fprintf(w, "workload=%s seed=%d trace=%t attempted=%d failed=%d error_rate=%.6f\n",
		r.Workload, r.Seed, trace, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	list := r.EndToEnd
	if trace {
		list = r.Layers
	}
	for _, m := range list {
		if m.N > 0 {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
}

// resultJSON builds the machine-readable line. With several results
// (the "all" workload) metric names are prefixed by the workload.
// latency_p99_ms is kept out of it: it exists on serve alone, and the
// line carries the metrics every workload reports.
func resultJSON(rs []*result, trace bool) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range rs {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		list := r.EndToEnd
		if trace {
			list = r.Layers
		}
		for _, m := range list {
			if m.Name == "latency_p99_ms" {
				continue
			}
			name := m.Name
			if len(rs) > 1 {
				name = r.Workload + "." + name
			}
			line.Metrics[name] = jsonMetric{m.Value, m.Unit}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	return line
}

func writeResultJSON(w io.Writer, line resultLine) error {
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
