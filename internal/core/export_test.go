package core

// The rules fuseRule takes, for this package's external tests.
const (
	FuseByCount = fuseByCount
	FuseAlways  = fuseAlways
	FuseNever   = fuseNever
)

// SetFuseRule makes the live driver fuse windows by rule until the returned
// function restores the rule it replaced. Tests that call it must not run
// in parallel with other runs of the package.
func SetFuseRule(rule int) (restore func()) {
	old := fuseRule
	fuseRule = rule
	return func() { fuseRule = old }
}
