package app

import (
	"fmt"
	"hash/fnv"
	"path/filepath"

	"unison/internal/ckpt"
	"unison/internal/obs"
	"unison/internal/sim"
)

// kindStop is the descriptor kind of the scenario's global stop event
// (the 0x03xx range belongs to internal/app, see internal/ckpt).
const kindStop uint16 = 0x0301

// stopEvt is the stop global's descriptor: the event carries no payload
// beyond its timestamp, which lives in the sim.Event itself.
type stopEvt struct{}

func (stopEvt) CkptKind() uint16             { return kindStop }
func (stopEvt) CkptEncode(buf []byte) []byte { return buf }

// DecodeEvent implements ckpt.EventDecoder for the app-owned descriptor
// kinds. Globals scheduled by EnableProgress and ScheduleTopoChange carry
// no descriptors — a run using them cannot be checkpointed and the save
// reports ckpt.NoDesc (DESIGN.md §11 lists the exclusions).
func (s *Sim) DecodeEvent(kind uint16, _ sim.NodeID, d *ckpt.Dec) (sim.Proc, sim.EvDesc, bool, error) {
	if kind != kindStop {
		return nil, nil, false, nil
	}
	return func(ctx *sim.Ctx) { ctx.Stop() }, &stopEvt{}, true, nil
}

// ConfigHash digests everything a checkpoint does NOT carry — topology
// shape, seeds, queue/transport configuration, workload identity, stop
// time — so a restore into a differently built scenario fails fast
// instead of silently diverging. The hash only needs to be stable within
// one build of the simulator (checkpoints are crash-recovery artifacts,
// not archival data), so it digests the printed form of the plain-data
// config structs.
func (s *Sim) ConfigHash() uint64 {
	h := fnv.New64a()
	cfg := &s.cfg
	fmt.Fprintf(h, "nodes=%d links=%d seed=%d stop=%d extra=%d count=%d win=%d stream=%t",
		s.G.N(), len(s.G.LinkInfos()), cfg.Seed, cfg.StopAt,
		cfg.ExtraFlowSlots, cfg.FlowCount, cfg.StreamWindow, cfg.FlowSrc != nil)
	fmt.Fprintf(h, "|net=%+v|tcp=%+v", cfg.NetCfg, cfg.TCPCfg)
	if cfg.Coll != nil {
		fmt.Fprintf(h, "|coll=%+v", *cfg.Coll)
	}
	for i := range cfg.Flows {
		f := &cfg.Flows[i]
		fmt.Fprintf(h, "|%d:%d>%d:%d@%d", f.ID, f.Src, f.Dst, f.Bytes, f.Start)
	}
	return h.Sum64()
}

// CkptTarget assembles the checkpoint target over the scenario's wired
// layers. Call it on the original run (to save) or on a freshly built,
// identically configured scenario (to restore into). The layer list is
// ordered and must stay stable across both sides: netdev, tcp, the
// collective engine (when configured), the workload stream (when
// streaming), flowmon, then the optional observability collectors.
func (s *Sim) CkptTarget() *ckpt.Target {
	t := &ckpt.Target{
		ConfigHash: s.ConfigHash(),
		Layers:     []ckpt.Checkpointer{s.Net, s.Stack},
		Decoders:   []ckpt.EventDecoder{s.Net, s.Stack, s},
	}
	if s.Coll != nil {
		t.Layers = append(t.Layers, s.Coll)
	}
	if c, ok := s.flowSrc.(ckpt.Checkpointer); ok {
		t.Layers = append(t.Layers, c)
	}
	t.Layers = append(t.Layers, s.Mon)
	if s.Net.Tracer != nil {
		t.Layers = append(t.Layers, s.Net.Tracer)
	}
	if sam := s.Net.Sampler(); sam != nil {
		t.Layers = append(t.Layers, sam)
	}
	return t
}

// CheckpointPath returns the snapshot filename for round r in dir.
func CheckpointPath(dir string, r uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-r%09d.uckpt", r))
}

// EnableCheckpoints arms periodic snapshots on m: every `every`
// synchronization rounds (and, for the null-message kernel, at every
// multiple of everyTime) the kernel quiesces and writes
// dir/ckpt-r<round>.uckpt atomically through t. A non-nil probe receives
// one RoundRecord per snapshot carrying its size and for how long it held
// the kernel's workers. With both cadences zero it arms nothing.
func EnableCheckpoints(m *sim.Model, t *ckpt.Target, dir string, every uint64, everyTime sim.Time, probe obs.Probe) {
	if every == 0 && everyTime == 0 {
		return
	}
	m.Pauses = append(m.Pauses, sim.Pause{Every: every, EveryTime: everyTime,
		New: t.Saver(func(r uint64) string { return CheckpointPath(dir, r) }, probe)})
}

// Restore loads the snapshot at path into the layers behind t (which
// must come from an identically configured scenario) and arms m to
// resume from it instead of running Model.Init.
func Restore(m *sim.Model, t *ckpt.Target, path string) error {
	ks, err := t.Load(path)
	if err != nil {
		return err
	}
	m.Restore = ks
	return nil
}

var (
	_ sim.EvDesc        = stopEvt{}
	_ ckpt.EventDecoder = (*Sim)(nil)
)
