// Package analyzers holds the unisoncheck suite: five analyzers that
// mechanically enforce the determinism, ownership and checkpoint
// invariants the paper's guarantees rest on. See DESIGN.md §9 for the
// catalogue, the annotation grammar and the defect each one caught.
package analyzers

import (
	"go/ast"
	"go/types"

	"unison/internal/analysis"
)

// All returns the full suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Wallclock, Maporder, Owner, Seedflow, Ckptfields}
}

// Wallclock forbids wall-clock reads and global math/rand draws inside
// simulation packages. Simulated time must advance only through the
// event loop; a single time.Now() folded into state silently breaks the
// bit-identity guarantee across runs and worker counts.
var Wallclock = &analysis.Analyzer{
	Name: "wallclock",
	Doc: `forbid wall-clock and global-rand reads in simulation packages

Inside the packages that execute in virtual time (see
analysis.InSimPackage), references to time.Now, time.Since, time.Sleep,
time.Until, time.After, time.AfterFunc, time.Tick, time.NewTimer and
time.NewTicker are diagnostics, as are calls of math/rand package-level
functions that draw from the process-global source (rand.Intn,
rand.Float64, ...; constructing an explicit generator is seedflow's
concern). Every other package (dist, faults, obs, the CLIs) may read the
wall clock.

Measurement-only uses (worker wall-time decompositions, calibration)
are annotated at the offending line:

	start := time.Now() //unison:wallclock-ok phase wall-time stat, not sim state

The reason string is mandatory; a bare //unison:wallclock-ok is itself a
diagnostic. Test files are not checked.`,
	Run: runWallclock,
}

// bannedTimeFuncs are the clock-reading (or clock-driven) entry points of
// package time. Arithmetic on time.Time/Duration values stays legal.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandExempt are the math/rand package-level functions that do NOT
// draw from the global source.
var globalRandExempt = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runWallclock(pass *analysis.Pass) error {
	if !analysis.InSimPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			var what string
			switch {
			case fn.Pkg().Path() == "time" && bannedTimeFuncs[fn.Name()]:
				what = "wall clock"
			case isGlobalRandFunc(fn):
				what = "process-global math/rand source"
			default:
				return true
			}
			if ok, missing := escaped(pass, sel.Pos(), "wallclock-ok"); ok {
				if missing {
					pass.Reportf(sel.Pos(), "//unison:wallclock-ok needs a reason string")
				}
				return true
			}
			pass.Reportf(sel.Pos(), "%s.%s reads the %s inside simulation package %s; route through simulated time or annotate //unison:wallclock-ok <reason>",
				fn.Pkg().Name(), fn.Name(), what, pass.Pkg.Path())
			return true
		})
	}
	return nil
}

// isGlobalRandFunc reports whether fn is a math/rand package-level
// function drawing from the process-global source.
func isGlobalRandFunc(fn *types.Func) bool {
	if fn.Pkg().Path() != "math/rand" && fn.Pkg().Path() != "math/rand/v2" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false // method on *rand.Rand — an explicit, owned stream
	}
	return !globalRandExempt[fn.Name()]
}
