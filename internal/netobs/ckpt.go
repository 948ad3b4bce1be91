package netobs

import (
	"fmt"

	"unison/internal/ckpt"
	"unison/internal/sim"
)

func encodeRow(e *ckpt.Enc, r *Row) {
	e.Time(r.Tick)
	e.I32(int32(r.Node))
	e.I32(r.Link)
	e.I32(r.Depth)
	e.I32(r.MaxDepth)
	e.U32(r.Enqueues)
	e.U32(r.Dequeues)
	e.U32(r.Drops)
	e.U32(r.Marks)
	e.U64(r.TxBytes)
	e.I64(r.BW)
}

const rowBytes = 8 + 4*8 + 8 + 8

func decodeRow(d *ckpt.Dec) Row {
	return Row{
		Tick:     d.Time(),
		Node:     sim.NodeID(d.I32()),
		Link:     d.I32(),
		Depth:    d.I32(),
		MaxDepth: d.I32(),
		Enqueues: d.U32(),
		Dequeues: d.U32(),
		Drops:    d.U32(),
		Marks:    d.U32(),
		TxBytes:  d.U64(),
		BW:       d.I64(),
	}
}

// CkptName implements ckpt.Checkpointer.
func (s *Sampler) CkptName() string { return "netobs" }

// CkptSave implements ckpt.Checkpointer: per-probe bucket cursor, open
// bucket and emitted rows, in registration order (which is deterministic
// — AttachSampler registers devices in the flat device-array order).
//
//unison:owner checkpoint
func (s *Sampler) CkptSave(e *ckpt.Enc) error {
	e.Bool(s.flushed)
	e.U32(uint32(len(s.devs)))
	for _, p := range s.devs {
		e.Time(p.tick)
		e.Bool(p.active)
		encodeRow(e, &p.cur)
		e.U32(uint32(len(p.rows)))
		for i := range p.rows {
			encodeRow(e, &p.rows[i])
		}
	}
	return nil
}

// CkptLoad implements ckpt.Checkpointer over a sampler re-registered for
// the same devices.
//
//unison:owner checkpoint
func (s *Sampler) CkptLoad(d *ckpt.Dec) error {
	s.flushed = d.Bool()
	if np := d.Count(8 + 1 + rowBytes + 4); np != len(s.devs) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("netobs: checkpoint has %d probes, sampler registered %d", np, len(s.devs))
	}
	for _, p := range s.devs {
		p.tick = d.Time()
		p.active = d.Bool()
		p.cur = decodeRow(d)
		nr := d.Count(rowBytes)
		p.rows = p.rows[:0]
		for i := 0; i < nr; i++ {
			p.rows = append(p.rows, decodeRow(d))
		}
	}
	return d.Err()
}

var _ ckpt.Checkpointer = (*Sampler)(nil)
