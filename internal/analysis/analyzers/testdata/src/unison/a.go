// Fixture: a stand-in for the repository root package, declaring the
// traffic facade alias the deprecated analyzer polices.
package unison

import "unison/internal/traffic"

// GenerateTraffic is the facade's var alias for traffic.Generate —
// banned in cmd/ (the declaring package and libraries may use it).
var GenerateTraffic = traffic.Generate

type Kernel interface{ Run() }

type barrier struct{}

func (barrier) Run() {}

// NewBarrier is a constructor no ban covers.
func NewBarrier() Kernel { return barrier{} }
