// Fixture: library code outside unison/cmd/ — the traffic ban is
// cmd/-scoped, so both the facade alias and direct generation stay legal.
package depuser

import "unison"

func fine() unison.Kernel { return unison.NewBarrier() }

var flows = unison.GenerateTraffic(2)
