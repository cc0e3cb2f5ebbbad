// Command socregress replays the frozen scenario corpus (package corpus)
// and diffs every output layer — schedule bytes, width sweeps, data-volume
// curves, effective widths, lower bounds, socserved HTTP responses, and the
// rectpack-family and anneal packers' schedules —
// against the golden files committed under testdata/golden/. It is the
// repository's byte-stability gate: optimization PRs must leave every
// golden byte unchanged, or consciously re-bless with -update.
//
// Usage:
//
//	socregress                      # replay everything, fail on any drift
//	socregress -run 'd695|monster'  # only scenarios matching the regex
//	socregress -layer sweep         # only layers whose name contains "sweep"
//	socregress -update              # re-bless: rewrite the golden files
//	socregress -list                # print the corpus and exit
//
// Exit status: 0 when every replayed layer matches its golden file,
// 1 on drift, missing goldens, or stale golden directories, 2 on usage or
// replay errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/corpus"
)

func main() {
	var (
		goldenDir = flag.String("golden", "testdata/golden", "golden directory (run from the repository root)")
		update    = flag.Bool("update", false, "rewrite the golden files from this replay (re-bless)")
		runExpr   = flag.String("run", "", "only replay scenarios whose name matches this regex")
		layerSub  = flag.String("layer", "", "only check layers whose file name contains this substring (diff filter only: every layer is still replayed)")
		verbose   = flag.Bool("v", false, "print every layer, not just drifting ones")
		list      = flag.Bool("list", false, "list the corpus scenarios and exit")
	)
	flag.Parse()

	scenarios := corpus.All()
	if *list {
		for _, sc := range scenarios {
			fmt.Printf("%-28s %s\n", sc.Name, sc.Notes)
		}
		fmt.Printf("%d scenarios × %d layers\n", len(scenarios), len(corpus.Layers()))
		return
	}

	var filter *regexp.Regexp
	if *runExpr != "" {
		var err error
		if filter, err = regexp.Compile(*runExpr); err != nil {
			fatalf(2, "socregress: bad -run regex: %v", err)
		}
	}

	selected := scenarios[:0:0]
	for _, sc := range scenarios {
		if filter == nil || filter.MatchString(sc.Name) {
			selected = append(selected, sc)
		}
	}
	if len(selected) == 0 {
		fatalf(2, "socregress: -run %q matches no scenario", *runExpr)
	}

	var layers []string
	for _, l := range corpus.Layers() {
		if *layerSub == "" || strings.Contains(l, *layerSub) {
			layers = append(layers, l)
		}
	}
	if len(layers) == 0 {
		fatalf(2, "socregress: -layer %q matches no layer", *layerSub)
	}

	drift, checked := 0, 0
	for _, sc := range selected {
		got, err := corpus.Replay(sc)
		if err != nil {
			fatalf(2, "socregress: %v", err)
		}
		dir := filepath.Join(*goldenDir, sc.Name)
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatalf(2, "socregress: %v", err)
			}
		}
		for _, layer := range layers {
			checked++
			path := filepath.Join(dir, layer)
			if *update {
				if err := os.WriteFile(path, got[layer], 0o644); err != nil {
					fatalf(2, "socregress: %v", err)
				}
				if *verbose {
					fmt.Printf("BLESS %s\n", path)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				drift++
				fmt.Printf("MISSING %-28s %-24s (run `go run ./cmd/socregress -update` to bless)\n", sc.Name, layer)
				continue
			}
			if d := corpus.Diff(want, got[layer]); d != "" {
				drift++
				fmt.Printf("DRIFT   %-28s %-24s\n%s\n", sc.Name, layer, indent(d))
			} else if *verbose {
				fmt.Printf("OK      %-28s %s\n", sc.Name, layer)
			}
		}
	}

	// Whole-corpus runs also police stale golden directories, so a renamed
	// or deleted scenario cannot leave unchecked bytes behind.
	if filter == nil && *layerSub == "" {
		for _, name := range corpus.StaleDirs(*goldenDir) {
			if *update {
				if err := os.RemoveAll(filepath.Join(*goldenDir, name)); err != nil {
					fatalf(2, "socregress: %v", err)
				}
				fmt.Printf("REMOVED stale golden dir %s\n", name)
			} else {
				drift++
				fmt.Printf("STALE   %-28s (no such scenario; -update removes it)\n", name)
			}
		}
	}

	if *update {
		fmt.Printf("socregress: blessed %d scenario(s) × %d layer(s) under %s\n", len(selected), len(layers), *goldenDir)
		return
	}
	if drift > 0 {
		fatalf(1, "socregress: %d of %d golden checks drifted", drift, checked)
	}
	fmt.Printf("socregress: %d scenario(s) × %d layer(s): all %d golden checks match\n", len(selected), len(layers), checked)
}

func indent(s string) string {
	return "        " + strings.ReplaceAll(s, "\n", "\n        ")
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}
