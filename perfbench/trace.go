package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call into a layer: its name, the op it served,
// the span that caused it (-1 for a root), and its interval in
// nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	// AllocBytes is the heap allocated during the span; recorded only
	// for spans started with alloc accounting on sequential workloads.
	AllocBytes int64 `json:"allocBytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs call the same code at the cost of a nil check.
type tracer struct {
	t0   time.Time
	cost atomic.Int64 // ns spent inside tracer methods: the tracing overhead

	mu    sync.Mutex
	spans []span          // guarded by mu
	alloc map[int]memMark // guarded by mu; open alloc-accounted spans
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), alloc: map[int]memMark{}}
}

// start opens a span and returns its id (-1 on a nil tracer). With
// withAlloc the heap counters are read at both ends; that stops the world
// briefly, so only sequential workloads ask for it.
func (t *tracer) start(name string, op int64, parent int, withAlloc bool) int {
	if t == nil {
		return -1
	}
	t0 := time.Now()
	var m memMark
	if withAlloc {
		m = readMem()
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	if withAlloc {
		t.alloc[id] = m
	}
	t.mu.Unlock()
	t.cost.Add(int64(time.Since(t0)))
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t0 := time.Now()
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	m, withAlloc := t.alloc[id]
	t.mu.Unlock()
	var alloc int64
	if withAlloc {
		alloc = int64(readMem().totalAlloc - m.totalAlloc)
	}
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].AllocBytes = alloc
	delete(t.alloc, id)
	t.mu.Unlock()
	t.cost.Add(int64(time.Since(t0)))
}

// resetCost restarts the overhead account, so it covers the measured
// window alone.
func (t *tracer) resetCost() {
	if t != nil {
		t.cost.Store(0)
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count   int
	TotalMs float64
	SelfMs  float64
	AllocMB float64
}

// MeanMs, MeanSelfMs and MeanAllocMB are per-call means (0 for no calls).
func (l layerStat) MeanMs() float64      { return ratio(l.TotalMs, float64(l.Count)) }
func (l layerStat) MeanSelfMs() float64  { return ratio(l.SelfMs, float64(l.Count)) }
func (l layerStat) MeanAllocMB() float64 { return ratio(l.AllocMB, float64(l.Count)) }

// aggregate groups spans by name.
func aggregate(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	out := map[string]layerStat{}
	for i, s := range spans {
		l := out[s.Name]
		l.Count++
		l.TotalMs += float64(s.End-s.Start) / 1e6
		l.SelfMs += float64(self[i]) / 1e6
		l.AllocMB += float64(s.AllocBytes) / (1 << 20)
		out[s.Name] = l
	}
	return out
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// overheadPct is the share of the traced clients' time spent inside the
// tracer.
func (t *tracer) overheadPct(elapsed time.Duration, clients int) float64 {
	return 100 * ratio(float64(t.cost.Load()), float64(elapsed)*float64(clients))
}

func traceFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
}
