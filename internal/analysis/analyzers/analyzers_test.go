package analyzers_test

import (
	"testing"

	"unison/internal/analysis/analysistest"
	"unison/internal/analysis/analyzers"
)

// Each analyzer must fire on its failing fixture and stay silent on the
// blessed idioms, packages outside its scope, and annotated escape
// hatches — the escape-hatch cases (wallclock-ok with and without a
// reason, ordered, owner transfer, ckpt-skip) are part of the fixtures
// themselves.

func TestWallclock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Wallclock,
		"unison/internal/core", // sim package: violations + both escape forms
		"util",                 // outside the sim set: ignored
	)
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Maporder, "maporder")
}

func TestOwner(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Owner, "owner")
}

func TestSeedflow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Seedflow,
		"seedflow",            // violations
		"unison/internal/rng", // the sanctioned constructor package
	)
}

func TestCkptfields(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzers.Ckptfields, "ckptfields")
}
