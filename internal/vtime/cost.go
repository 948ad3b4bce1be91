package vtime

// CostModel converts kernel actions into virtual nanoseconds. The model
// captures the quantities the paper's analysis depends on: per-event
// processing cost (with a locality-dependent cache term, which produces
// the super-linear speedups of Fig 8b and the granularity effects of
// Fig 12), per-message transfer cost, barrier/collective overhead, null
// message overhead, and scheduler sorting cost.
type CostModel struct {
	// EventNS is the base cost of executing one event.
	EventNS int64
	// MissNS is added for every modeled cache miss (see metrics.CacheModel).
	MissNS int64
	// CacheWays is the working-set associativity of the locality model.
	CacheWays int
	// MsgNS is the cost of transferring one cross-LP event.
	MsgNS int64
	// BarrierNS is the per-worker cost of one barrier crossing in the
	// baseline PDES kernels, including the MPI collective that computes
	// the LBTS.
	BarrierNS int64
	// SpinBarrierNS is the cost of one of Unison's in-process
	// sense-reversing atomic barriers (§5.1) — far cheaper than an MPI
	// collective.
	SpinBarrierNS int64
	// NullNS is the cost of sending one null message.
	NullNS int64
	// SortPerLPNS is the scheduler's per-LP sorting cost per resort.
	SortPerLPNS int64
}

// DefaultCostModel returns hand-set constants in the regime of ns-3 event
// costs (≈1 µs/event), where all of the paper's observations live.
func DefaultCostModel() CostModel {
	return CostModel{
		EventNS:       1000,
		MissNS:        500,
		CacheWays:     8,
		MsgNS:         120,
		BarrierNS:     2500,
		SpinBarrierNS: 300,
		NullNS:        400,
		SortPerLPNS:   25,
	}
}

func (c *CostModel) fillDefaults() {
	d := DefaultCostModel()
	if c.EventNS <= 0 {
		c.EventNS = d.EventNS
	}
	// MissNS == 0 means "default"; pass a negative value to disable the
	// cache-locality term explicitly.
	if c.MissNS == 0 {
		c.MissNS = d.MissNS
	}
	if c.MissNS < 0 {
		c.MissNS = 0
	}
	if c.CacheWays <= 0 {
		c.CacheWays = d.CacheWays
	}
	if c.MsgNS <= 0 {
		c.MsgNS = d.MsgNS
	}
	if c.BarrierNS <= 0 {
		c.BarrierNS = d.BarrierNS
	}
	if c.SpinBarrierNS <= 0 {
		c.SpinBarrierNS = d.SpinBarrierNS
	}
	if c.NullNS <= 0 {
		c.NullNS = d.NullNS
	}
	if c.SortPerLPNS <= 0 {
		c.SortPerLPNS = d.SortPerLPNS
	}
}
