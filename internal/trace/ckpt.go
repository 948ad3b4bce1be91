package trace

import (
	"fmt"

	"unison/internal/ckpt"
	"unison/internal/packet"
	"unison/internal/sim"
)

// CkptName implements ckpt.Checkpointer.
func (c *Collector) CkptName() string { return "trace" }

// ckptRecBytes is the encoded size of one Record in the checkpoint
// section.
const ckptRecBytes = 8 + 4 + 1 + 4 + 4 + 4

// CkptSave implements ckpt.Checkpointer: the per-node record buffers in
// emission order plus the per-node overflow counters.
//
//unison:owner checkpoint
func (c *Collector) CkptSave(e *ckpt.Enc) error {
	e.U32(uint32(len(c.perNode)))
	for _, rs := range c.perNode {
		e.U32(uint32(len(rs)))
		for i := range rs {
			r := &rs[i]
			e.Time(r.Time)
			e.I32(int32(r.Node))
			e.U8(uint8(r.Kind))
			e.U32(uint32(r.Flow))
			e.U32(r.Seq)
			e.I32(r.Size)
		}
	}
	e.U32(uint32(len(c.lost)))
	for _, l := range c.lost {
		e.U64(l)
	}
	return nil
}

// CkptLoad implements ckpt.Checkpointer over a collector built for the
// same node count and cap.
//
//unison:owner checkpoint
func (c *Collector) CkptLoad(d *ckpt.Dec) error {
	if nn := d.Count(4); nn != len(c.perNode) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("trace: checkpoint has %d node buffers, collector has %d", nn, len(c.perNode))
	}
	for n := range c.perNode {
		nr := d.Count(ckptRecBytes)
		c.perNode[n] = c.perNode[n][:0]
		for i := 0; i < nr; i++ {
			rec := Record{
				Time: d.Time(),
				Node: sim.NodeID(d.I32()),
				Kind: Kind(d.U8()),
				Flow: packet.FlowID(d.U32()),
				Seq:  d.U32(),
				Size: d.I32(),
			}
			if rec.Kind >= kindCount && d.Err() == nil {
				return fmt.Errorf("trace: checkpoint record has unknown kind %d", rec.Kind)
			}
			c.perNode[n] = append(c.perNode[n], rec)
		}
	}
	if nl := d.Count(8); nl != len(c.lost) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("trace: checkpoint has %d loss counters, collector has %d", nl, len(c.lost))
	}
	for i := range c.lost {
		c.lost[i] = d.U64()
	}
	return d.Err()
}

var _ ckpt.Checkpointer = (*Collector)(nil)
