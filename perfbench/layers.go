package main

import (
	"repro/internal/obs"
	"repro/internal/sched"
)

// racers are the backends the portfolio races.
var racers = []string{"classic", "rectpack", "preempt-rectpack", "anneal"}

// serveClasses are the serve workload's request classes, in report order.
var serveClasses = []string{"hot", "cold", "best", "batch", "upload"}

// layerMetrics lists every per-layer metric a traced run prints, in
// order. Times are per-call means, counts are totals over the measured
// phase, and a layer the workload never calls reports 0.
func layerMetrics() []metric {
	ms := []metric{
		{Name: "pareto.build.count", Unit: "count"},
		{Name: "pareto.build.self_ms", Unit: "ms"},
		{Name: "pareto.build.alloc_mb", Unit: "MB"},
		{Name: "datavol.sweep.count", Unit: "count"},
		{Name: "datavol.sweep.self_ms", Unit: "ms"},
		{Name: "datavol.sweep.alloc_mb", Unit: "MB"},
		{Name: "datavol.widths", Unit: "count"},
		{Name: "sched.portfolio.count", Unit: "count"},
		{Name: "sched.portfolio.ms", Unit: "ms"},
		{Name: "sched.portfolio.self_ms", Unit: "ms"},
		{Name: "sched.portfolio.alloc_mb", Unit: "MB"},
		{Name: "sched.portfolio.lb_optimal_ratio", Unit: "ratio"},
	}
	for _, b := range racers {
		ms = append(ms,
			metric{Name: b + ".ms", Unit: "ms"},
			metric{Name: b + ".count", Unit: "count"},
			metric{Name: b + ".win_ratio", Unit: "ratio"},
			metric{Name: b + ".declined", Unit: "count"})
	}
	ms = append(ms,
		metric{Name: "schedio.save.us", Unit: "us"},
		metric{Name: "schedio.bytes", Unit: "bytes"},
		metric{Name: "schedio.strict_load_errors", Unit: "count"})
	for _, c := range serveClasses {
		ms = append(ms,
			metric{Name: "service." + c + ".count", Unit: "count"},
			metric{Name: "service." + c + ".ms", Unit: "ms"},
			metric{Name: "service." + c + ".p50_ms", Unit: "ms"},
			metric{Name: "service." + c + ".p90_ms", Unit: "ms"})
	}
	return append(ms,
		metric{Name: "service.cache.hit_ratio", Unit: "ratio"},
		metric{Name: "service.registry.builds", Unit: "count"},
		metric{Name: "service.registry.evictions", Unit: "count"},
		metric{Name: "service.http_overhead_ms", Unit: "ms"},
		metric{Name: "service.latency_p99_ms", Unit: "ms"},
		metric{Name: "trace.throughput_ops_s", Unit: "1/s"},
		metric{Name: "trace.overhead_pct", Unit: "%"},
		metric{Name: "trace.spans", Unit: "count"},
	)
}

// fillLayers returns layerMetrics with the measured values filled in;
// names absent from vals stay 0. Sample counts come from counts.
func fillLayers(vals map[string]float64, counts map[string]int) []metric {
	ms := layerMetrics()
	for i := range ms {
		ms[i].Value = vals[ms[i].Name]
		ms[i].N = counts[ms[i].Name]
	}
	return ms
}

// histTotals is a histogram registry reduced to per-name call counts and
// total nanoseconds, so two readings subtract exactly.
type histTotals map[string]struct{ count, ns int64 }

func totals(snap map[string]obs.HistSnapshot) histTotals {
	out := histTotals{}
	for name, h := range snap {
		out[name] = struct{ count, ns int64 }{h.Count, h.Count * h.MeanNs}
	}
	return out
}

// since returns the per-name delta from an earlier reading.
func (h histTotals) since(before histTotals) histTotals {
	out := histTotals{}
	for name, v := range h {
		b := before[name]
		out[name] = struct{ count, ns int64 }{v.count - b.count, v.ns - b.ns}
	}
	return out
}

// globals is a reading of the program's process-wide counters: the
// latency registries and the portfolio race records. Every figure the
// benchmark takes from them is an after-minus-before delta.
type globals struct {
	backends, stages histTotals
	races            map[string]sched.BackendRaceStats
}

func readGlobals() globals {
	l := obs.LatencySnapshot()
	return globals{totals(l.Backends), totals(l.Stages), sched.PortfolioStats()}
}

// resetGlobals starts a workload run from clean process-wide state, so a
// quarantine or histogram left by an earlier run cannot leak into it.
func resetGlobals() {
	sched.ResetPortfolioHealth()
	obs.ResetLatency()
}

// racerLayers fills the per-racer metrics from the deltas between two
// readings: mean ms per run, runs, won/(won+lost), and declines.
func racerLayers(vals map[string]float64, before, after globals) {
	lat := after.backends.since(before.backends)
	for _, b := range racers {
		d := lat[b]
		vals[b+".count"] = float64(d.count)
		vals[b+".ms"] = ratio(float64(d.ns)/1e6, float64(d.count))
		a, o := after.races[b], before.races[b]
		won, lost := a.Won-o.Won, a.Lost-o.Lost
		vals[b+".win_ratio"] = ratio(float64(won), float64(won+lost))
		vals[b+".declined"] = float64(a.Declined - o.Declined)
	}
}
