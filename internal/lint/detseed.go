package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// DetSeed keeps the deterministic packages (the synthetic benchmark
// generator, the scenario corpus, the packing engine, and the rectpack and
// anneal backends) reproducible run to run:
//
//   - no time.Now — wall-clock reads leak into sizes, seeds, or ordering;
//   - no package-level math/rand state — rand.Intn and friends draw from
//     the global source, which Go seeds randomly; deterministic code must
//     thread an explicitly seeded *rand.Rand (rand.New(rand.NewSource(n))
//     is fine and not flagged);
//   - no map-dependent sort.Slice comparators — an unstable sort whose
//     less function consults a map ties in map-iteration order, which is
//     randomized.
var DetSeed = &analysis.Analyzer{
	Name: "detseed",
	Doc: "forbid nondeterminism sources in deterministic packages\n\n" +
		"In anneal, bench, corpus, pack and rectpack: no time.Now, no global math/rand\n" +
		"draws (seeded rand.New sources are fine), and no sort.Slice comparator that\n" +
		"reads a map.",
	Run: runDetSeed,
}

func runDetSeed(pass *analysis.Pass) error {
	if !deterministicPackages[pkgBase(pass.Pkg.Path())] {
		return nil
	}
	info := pass.TypesInfo
	for _, fd := range funcDecls(pass.Files) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgFunc(info, call, "time"); ok && name == "Now" {
				pass.Reportf(call.Pos(),
					"time.Now in a deterministic package; derive timing-free output or take the clock as a parameter")
			}
			for _, randPath := range []string{"math/rand", "math/rand/v2"} {
				if name, ok := pkgFunc(info, call, randPath); ok && !strings.HasPrefix(name, "New") {
					pass.Reportf(call.Pos(),
						"rand.%s draws from the global math/rand source; use an explicitly seeded rand.New(rand.NewSource(...))", name)
				}
			}
			if name, ok := pkgFunc(info, call, "sort"); ok && (name == "Slice" || name == "SliceStable") && len(call.Args) == 2 {
				if cmp, ok := call.Args[1].(*ast.FuncLit); ok && readsMap(info, cmp.Body) {
					pass.Reportf(call.Pos(),
						"sort.%s comparator reads a map, so ties land in randomized map order; sort by a total order on the elements themselves", name)
				}
			}
			return true
		})
	}
	return nil
}

// readsMap reports whether the subtree indexes into a map.
func readsMap(info *types.Info, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if isMap(info, ix.X) {
			found = true
			return false
		}
		return true
	})
	return found
}
