// Command perfbench is the repository's benchmark. It runs one of three
// seeded workloads against the library and an in-process socserved,
// checks every output, and prints the end-to-end metrics; with -trace 1
// it records spans around the calls into each module and prints
// per-layer metrics instead. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload race --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	golden   string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *tracer) (*result, error){
	"sweep": runSweep,
	"race":  runRace,
	"serve": runServe,
}

// workloadOrder is the order "all" runs them in.
var workloadOrder = []string{"sweep", "race", "serve"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: sweep, race, serve, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the generated inputs are a pure function of it")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "minimum length of the measured window, in seconds; on serve it sizes the fixed unit count")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	fs.StringVar(&cfg.golden, "golden", "testdata/golden", "corpus golden directory (race checks)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadOrder
	}
	var results []*result
	for _, name := range names {
		runner, ok := workloads[name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want sweep, race, serve or all)\n", name)
			return 2
		}
		resetGlobals()
		var tr *tracer
		if cfg.trace {
			tr = newTracer()
		}
		r, err := runner(cfg, tr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if tr != nil {
			path := traceFile(cfg.traceDir, name, cfg.seed)
			if err := tr.write(path); err != nil {
				fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
				return 1
			}
			r.Notes = append(r.Notes, "spans written to "+path)
		}
		report(stdout, r, cfg.trace)
		results = append(results, r)
	}
	line := resultJSON(results, cfg.trace)
	if err := writeResultJSON(stdout, line); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}
