package analyzers_test

import (
	"testing"

	"unison/internal/analysis/analysistest"
	"unison/internal/analysis/analyzers"
)

// Each analyzer must fire on its failing fixture and stay silent on the
// blessed idioms, exempt packages, and annotated escape hatches — the
// escape-hatch cases (wallclock-ok with and without a reason, ordered,
// owner transfer) are part of the fixtures themselves.

func TestWallclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Wallclock,
		"unison/internal/core", // sim package: violations + both escape forms
		"unison/internal/dist", // exempt package: wall clock allowed
		"util",                 // outside the sim set: ignored
	)
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Maporder, "maporder")
}

func TestOwner(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Owner, "owner")
}

func TestArena(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Arena, "arena")
}

func TestSeedflow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Seedflow,
		"seedflow",            // violations
		"unison/internal/rng", // the sanctioned constructor package
	)
}

func TestDeprecated(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Deprecated,
		"depuser",                 // traffic ban inert outside cmd/
		"unison",                  // the declaring package itself is exempt
		"unison/cmd/unifix",       // cmd/ scope: traffic.Generate and the facade alias are banned
		"unison/internal/traffic", // the generator's own package is exempt
	)
}

func TestCkptfields(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Ckptfields, "ckptfields")
}

func TestPoolescape(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Poolescape, "poolescape")
}

func TestStatejson(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Statejson, "statejson")
}
