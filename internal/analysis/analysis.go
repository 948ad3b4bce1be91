// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, built only on the standard
// library so the repository stays module-clean. It exists to host the
// unisoncheck analyzer suite (see internal/analysis/analyzers): compiler-
// grade checks that enforce the kernel's determinism and ownership
// invariants at the offending line instead of at a downstream bit-identity
// hash mismatch.
//
// The API mirrors x/tools deliberately — Analyzer, Pass, Diagnostic — so
// that if the repository ever vendors x/tools the suite ports
// mechanically. Drivers (cmd/unisoncheck, the analysistest harness)
// construct a Pass per package and collect reported Diagnostics.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named, documented check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid Go
	// identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then free-form prose describing the rules and escape hatches.
	Doc string

	// Run applies the analyzer to a package. It reports findings via
	// pass.Report and returns an error only for internal failures (a nil
	// type where one was guaranteed, not for findings).
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package and
// a sink for its diagnostics. Passes are not reused across packages.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Directives indexes //unison: comment directives by file and line;
	// analyzers consult it for escape hatches. Never nil.
	Directives *Directives

	// Report delivers one diagnostic. Never nil.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a position and a message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// NewInfo returns a types.Info with every map analyzers rely on allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// InSimPackage reports whether path names one of the packages whose code
// runs inside the simulated-time universe, or builds its inputs. These
// packages carry the paper's determinism guarantee (§3 deterministic
// tie-breaking, §4 lock-free rounds): no wall clock, no unseeded
// randomness, and no map-iteration order may leak into simulation state
// there.
//
// The set is a function of the import path, not configuration, so that
// go vet and the analysistest fixtures (under matching paths) classify
// identically.
func InSimPackage(path string) bool { return simPackages[path] }

var simPackages = map[string]bool{
	"unison/internal/des":      true,
	"unison/internal/core":     true,
	"unison/internal/pdes":     true,
	"unison/internal/vtime":    true,
	"unison/internal/eventq":   true,
	"unison/internal/netdev":   true,
	"unison/internal/flowmon":  true,
	"unison/internal/netobs":   true,
	"unison/internal/traffic":  true,
	"unison/internal/routing":  true,
	"unison/internal/tcp":      true,
	"unison/internal/sim":      true,
	"unison/internal/metrics":  true,
	"unison/internal/coll":     true,
	"unison/internal/trace":    true,
	"unison/internal/packet":   true,
	"unison/internal/topology": true,
}

// RNGPackage is the one package allowed to construct raw generators;
// every other package derives streams from it so each draw is traceable
// to the run seed.
const RNGPackage = "unison/internal/rng"
