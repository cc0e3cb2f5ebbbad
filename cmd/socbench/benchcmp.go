package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// loadBenchReport reads a -benchjson file (the socbench-benchjson/v1
// schema committed as BENCH_*.json baselines).
func loadBenchReport(path string) (benchJSONReport, error) {
	var rep benchJSONReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != "socbench-benchjson/v1" {
		return rep, fmt.Errorf("%s: unknown schema %q", path, rep.Schema)
	}
	return rep, nil
}

// compareBenchReports diffs current ns/op against a baseline. It returns a
// human-readable delta table and the list of gate failures: any benchmark
// tracked by the baseline that regressed more than maxPct percent, or that
// vanished from the current report. New benchmarks (in current only) are
// listed informationally and never fail the gate.
func compareBenchReports(base, cur benchJSONReport, maxPct float64) (table string, failures []string) {
	curByName := make(map[string]benchJSONResult, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %14s %14s %9s\n", "benchmark", "base ns/op", "new ns/op", "delta")
	for _, b := range base.Benchmarks {
		nb, ok := curByName[b.Name]
		if !ok {
			fmt.Fprintf(&sb, "%-28s %14d %14s %9s\n", b.Name, b.NsPerOp, "-", "GONE")
			failures = append(failures, fmt.Sprintf("%s: tracked by the baseline but missing from the current report", b.Name))
			continue
		}
		delete(curByName, b.Name)
		if b.NsPerOp <= 0 {
			// A zero baseline would make every delta read +0.0% and
			// silently un-gate the benchmark; treat it as a broken file.
			fmt.Fprintf(&sb, "%-28s %14d %14d %9s\n", b.Name, b.NsPerOp, nb.NsPerOp, "BAD")
			failures = append(failures, fmt.Sprintf("%s: baseline ns/op %d is not positive (corrupt baseline file?)", b.Name, b.NsPerOp))
			continue
		}
		delta := 100 * (float64(nb.NsPerOp) - float64(b.NsPerOp)) / float64(b.NsPerOp)
		mark := ""
		if delta > maxPct {
			mark = "  << REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %d -> %d ns/op (%+.1f%%, limit +%.0f%%)", b.Name, b.NsPerOp, nb.NsPerOp, delta, maxPct))
		}
		fmt.Fprintf(&sb, "%-28s %14d %14d %+8.1f%%%s\n", b.Name, b.NsPerOp, nb.NsPerOp, delta, mark)
	}
	for _, b := range cur.Benchmarks {
		if _, ok := curByName[b.Name]; ok {
			fmt.Fprintf(&sb, "%-28s %14s %14d %9s\n", b.Name, "-", b.NsPerOp, "NEW")
		}
	}
	return sb.String(), failures
}

// compareBenchAllocs diffs current allocs/op against a baseline, on the
// rows both reports carry with allocs/op recorded; rows of a baseline
// written before the field existed are skipped. It returns a delta table
// (empty when no row qualifies) and a failure for every row whose
// allocs/op grew more than maxPct percent. A row that allocated nothing
// in the baseline fails on any allocation.
func compareBenchAllocs(base, cur benchJSONReport, maxPct float64) (table string, failures []string) {
	curByName := make(map[string]benchJSONResult, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	var sb strings.Builder
	for _, b := range base.Benchmarks {
		nb, ok := curByName[b.Name]
		if !ok || b.AllocsPerOp == nil || nb.AllocsPerOp == nil {
			continue
		}
		if sb.Len() == 0 {
			fmt.Fprintf(&sb, "%-28s %14s %14s %9s\n", "benchmark", "base allocs/op", "new allocs/op", "delta")
		}
		was, now := *b.AllocsPerOp, *nb.AllocsPerOp
		var pct float64
		switch {
		case was > 0:
			pct = 100 * (float64(now) - float64(was)) / float64(was)
		case now > 0:
			pct = math.Inf(1)
		}
		mark := ""
		if pct > maxPct {
			mark = "  << REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %d -> %d allocs/op (%+.1f%%, limit +%.0f%%)", b.Name, was, now, pct, maxPct))
		}
		fmt.Fprintf(&sb, "%-28s %14d %14d %+8.1f%%%s\n", b.Name, was, now, pct, mark)
	}
	return sb.String(), failures
}

// runBenchCmp is the -benchcmp gate: compare newPath against basePath and
// exit non-zero when any tracked benchmark regressed past maxPct percent
// in ns/op, or past maxAllocPct percent in allocs/op where both files
// record it.
func runBenchCmp(basePath, newPath string, maxPct, maxAllocPct float64) {
	base, err := loadBenchReport(basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadBenchReport(newPath)
	if err != nil {
		fatal(err)
	}
	table, failures := compareBenchReports(base, cur, maxPct)
	fmt.Printf("socbench: %s vs baseline %s (gate: +%.0f%% ns/op)\n%s", newPath, basePath, maxPct, table)
	allocTable, allocFailures := compareBenchAllocs(base, cur, maxAllocPct)
	if allocTable == "" {
		fmt.Println("socbench: allocs/op gate skipped: no benchmark records allocs/op in both files")
	} else {
		fmt.Printf("socbench: allocs/op gate: +%.0f%%\n%s", maxAllocPct, allocTable)
	}
	failures = append(failures, allocFailures...)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "socbench: benchmark regression gate failed:\n")
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("socbench: benchmark gate passed")
}
