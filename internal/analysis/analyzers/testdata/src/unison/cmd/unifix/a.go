// Fixture: a CLI package — the scenario migration bans direct traffic
// generation here, both through the internal package and through the
// facade's var alias.
package main

import (
	"unison"
	"unison/internal/traffic"
)

func direct() []traffic.Flow {
	return traffic.Generate(4) // want `deprecated inside cmd/`
}

// The facade alias is a package-level var, not a func — the analyzer
// must resolve it as a types.Object, not just *types.Func.
var gen = unison.GenerateTraffic // want `deprecated inside cmd/`

func fine() unison.Kernel { return unison.NewBarrier() }

func main() {}
