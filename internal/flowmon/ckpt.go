package flowmon

import (
	"fmt"
	"slices"

	"unison/internal/ckpt"
	"unison/internal/packet"
	"unison/internal/sim"
)

func encodeSender(e *ckpt.Enc, r *SenderRec) {
	e.I32(int32(r.Src))
	e.I32(int32(r.Dst))
	e.I64(r.Bytes)
	e.Time(r.StartT)
	e.Time(r.FirstTxT)
	e.Time(r.DoneT)
	e.Bool(r.Done)
	e.U64(r.Retransmit)
	e.Summary(&r.RTT)
}

const senderRecBytes = 4 + 4 + 8 + 8 + 8 + 8 + 1 + 8 + ckpt.SummaryBytes

func decodeSender(d *ckpt.Dec) SenderRec {
	return SenderRec{
		Src:        sim.NodeID(d.I32()),
		Dst:        sim.NodeID(d.I32()),
		Bytes:      d.I64(),
		StartT:     d.Time(),
		FirstTxT:   d.Time(),
		DoneT:      d.Time(),
		Done:       d.Bool(),
		Retransmit: d.U64(),
		RTT:        d.Summary(),
	}
}

func encodeRecv(e *ckpt.Enc, r *RecvRec) {
	e.I64(r.BytesRcvd)
	e.Time(r.FirstRxT)
	e.Time(r.LastRxT)
	e.Bool(r.Done)
	e.Time(r.DoneT)
}

const recvRecBytes = 8 + 8 + 8 + 1 + 8

func decodeRecv(d *ckpt.Dec) RecvRec {
	return RecvRec{
		BytesRcvd: d.I64(),
		FirstRxT:  d.Time(),
		LastRxT:   d.Time(),
		Done:      d.Bool(),
		DoneT:     d.Time(),
	}
}

// CkptName implements ckpt.Checkpointer.
func (m *Monitor) CkptName() string { return "flowmon" }

// CkptSave implements ckpt.Checkpointer: the dense record arrays plus any
// overflow stragglers, the latter in ascending flow-id order so the
// encoded bytes are deterministic. Unlike Export, Save never folds or
// copies the live arrays.
//
//unison:owner checkpoint
func (m *Monitor) CkptSave(e *ckpt.Enc) error {
	e.U32(uint32(len(m.senders)))
	for i := range m.senders {
		encodeSender(e, &m.senders[i])
	}
	e.U32(uint32(len(m.recvs)))
	for i := range m.recvs {
		encodeRecv(e, &m.recvs[i])
	}
	sIDs := make([]packet.FlowID, 0, len(m.oSenders))
	for id := range m.oSenders {
		sIDs = append(sIDs, id)
	}
	slices.Sort(sIDs)
	e.U32(uint32(len(sIDs)))
	for _, id := range sIDs {
		e.U32(uint32(id))
		encodeSender(e, m.oSenders[id])
	}
	rIDs := make([]packet.FlowID, 0, len(m.oRecvs))
	for id := range m.oRecvs {
		rIDs = append(rIDs, id)
	}
	slices.Sort(rIDs)
	e.U32(uint32(len(rIDs)))
	for _, id := range rIDs {
		e.U32(uint32(id))
		encodeRecv(e, m.oRecvs[id])
	}
	e.I64(int64(m.oEnd))
	return nil
}

// CkptLoad implements ckpt.Checkpointer over a monitor pre-registered for
// the same flow count.
//
//unison:owner checkpoint
func (m *Monitor) CkptLoad(d *ckpt.Dec) error {
	if ns := d.Count(senderRecBytes); ns != len(m.senders) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("flowmon: checkpoint has %d sender records, monitor registered %d", ns, len(m.senders))
	}
	for i := range m.senders {
		m.senders[i] = decodeSender(d)
	}
	if nr := d.Count(recvRecBytes); nr != len(m.recvs) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("flowmon: checkpoint has %d receiver records, monitor registered %d", nr, len(m.recvs))
	}
	for i := range m.recvs {
		m.recvs[i] = decodeRecv(d)
	}
	m.oSenders = nil
	m.oRecvs = nil
	m.oEnd = 0
	nOS := d.Count(4 + senderRecBytes)
	for i := 0; i < nOS; i++ {
		id := packet.FlowID(d.U32())
		rec := decodeSender(d)
		if d.Err() == nil {
			*m.Sender(id) = rec
		}
	}
	nOR := d.Count(4 + recvRecBytes)
	for i := 0; i < nOR; i++ {
		id := packet.FlowID(d.U32())
		rec := decodeRecv(d)
		if d.Err() == nil {
			*m.Recv(id) = rec
		}
	}
	oEnd := int(d.I64())
	if err := d.Err(); err != nil {
		return err
	}
	m.oEnd = oEnd
	return nil
}

var _ ckpt.Checkpointer = (*Monitor)(nil)
