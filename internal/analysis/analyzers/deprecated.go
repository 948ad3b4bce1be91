package analyzers

import (
	"go/ast"
	"strings"

	"unison/internal/analysis"
)

// cmdDeprecatedFuncs maps package path -> object name -> replacement
// hint, enforced only inside the CLIs (import path prefix unison/cmd/).
// The scenario migration: every CLI resolves its workload through
// Scenario.Build, so hand-wiring the traffic generator there bypasses the
// one shared resolver. Library and example code may keep calling the
// generator directly.
var cmdDeprecatedFuncs = map[string]map[string]string{
	"unison": {
		"GenerateTraffic": "a Scenario traffic section resolved by Scenario.Build",
	},
	"unison/internal/traffic": {
		"Generate": "a Scenario traffic section resolved by Scenario.Build",
	},
}

// Deprecated flags CLI references to entry points the scenario resolver
// replaced. It resolves identifiers through the type checker, so
// mentioning a name in a string or comment is fine while calling it — or
// capturing it as a function or var value — is not.
var Deprecated = &analysis.Analyzer{
	Name: "deprecated",
	Doc: `forbid references inside cmd/ to entry points the scenario resolver replaced

Inside unison/cmd/, traffic.Generate and its facade alias
unison.GenerateTraffic are banned: the CLIs must route workloads through
the shared Scenario resolver so one file means one run everywhere. Any
type-resolved reference (call, function value, or var alias) is a
diagnostic; string literals and comments naming them are not. Checked in
test files too — only the declaring package itself is exempt.`,
	Run: runDeprecated,
}

func runDeprecated(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), "unison/cmd/") {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		// Idents alone suffice: a qualified reference's Sel is visited as
		// an ident child, and handling the SelectorExpr too would report
		// every finding twice.
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		// Any package-level object counts — *types.Func for direct
		// functions, *types.Var for aliases like the facade's
		// `var GenerateTraffic = traffic.Generate`. The package-scope
		// check keeps same-named methods and struct fields out.
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() == pass.Pkg.Path() {
			return true
		}
		if obj.Parent() != obj.Pkg().Scope() {
			return true
		}
		if hint, ok := cmdDeprecatedFuncs[obj.Pkg().Path()][obj.Name()]; ok {
			pass.Reportf(id.Pos(), "%s.%s is deprecated inside cmd/; use %s", obj.Pkg().Name(), obj.Name(), hint)
		}
		return true
	})
	return nil
}
