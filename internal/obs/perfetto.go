package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"unison/internal/sim"
)

// This file renders round records as Chrome trace-event JSON — the format
// Perfetto (https://ui.perfetto.dev) and chrome://tracing load directly.
// Each worker becomes a thread track carrying one span per round phase
// (process / wait-global / recv / wait-window), so a round's wait
// structure — who idled at which barrier, for how long — is visually
// inspectable. Two counter tracks carry the LBTS progression and the
// per-round event totals.
//
// Timestamps are reconstructed from the recorded per-phase durations:
// every worker's track is the cumulative sum of its own spans. Workers
// therefore stay visually aligned at barriers up to measurement noise,
// and a virtual-testbed export (whose durations are exact) aligns
// perfectly.
//
// The building blocks are exported (TraceEvent, Events, WriteTraceJSON)
// so other exporters — internal/netobs renders simulated-network queue,
// link and flow tracks — can append their events and land in the same
// trace file as the kernel's worker lanes.

// TraceEvent is one Chrome trace-event object. Ts and Dur are in
// microseconds, per the format.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level trace-event JSON object.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// KernelPid is the trace-event process id of the kernel's worker lanes;
// exporters of other domains (the simulated network) use distinct pids so
// their tracks group separately in the Perfetto UI.
const KernelPid = 1

// ProcessName returns the metadata event naming a trace-event process.
func ProcessName(pid int, name string) TraceEvent {
	return TraceEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name},
	}
}

// ThreadName returns the metadata event naming a trace-event thread.
func ThreadName(pid, tid int, name string) TraceEvent {
	return TraceEvent{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	}
}

// phase names, in within-round order.
var phaseNames = [4]string{"process", "wait-global", "recv", "wait-window"}

// Events renders recs (as returned by Registry.Records: merged in
// (Round, Worker) order) into trace events on the kernel process track.
func Events(meta RunMeta, recs []RoundRecord) []TraceEvent {
	evs := []TraceEvent{ProcessName(KernelPid, fmt.Sprintf("unison %s", meta.Kernel))}
	seen := map[int32]bool{}
	clock := map[int32]int64{} // per-worker cumulative ns
	for i := range recs {
		rec := &recs[i]
		if !seen[rec.Worker] {
			seen[rec.Worker] = true
			evs = append(evs, ThreadName(KernelPid, int(rec.Worker), fmt.Sprintf("worker %d", rec.Worker)))
		}
		waitWindow := rec.SyncNS - rec.WaitGlobalNS
		if waitWindow < 0 {
			waitWindow = 0
		}
		durs := [4]int64{rec.ProcNS, rec.WaitGlobalNS, rec.MsgNS, waitWindow}
		t := clock[rec.Worker]
		if rec.Worker == 0 {
			// Counter tracks, sampled at each of worker 0's round starts.
			evs = append(evs, counterEvent("lbts_us", t, lbtsMicros(rec.LBTS)),
				counterEvent("round_events", t, float64(roundEvents(recs, i))))
		}
		for p, d := range durs {
			if d <= 0 {
				continue
			}
			ev := TraceEvent{
				Name: phaseNames[p], Ph: "X",
				Ts: float64(t) / 1e3, Dur: float64(d) / 1e3,
				Pid: KernelPid, Tid: int(rec.Worker),
			}
			if p == 0 {
				args := map[string]any{
					"round": rec.Round, "events": rec.Events,
					"lbts": rec.LBTS.String(),
				}
				if rec.Sends > 0 {
					args["mailbox_sends"] = rec.Sends
				}
				if rec.Migrations > 0 {
					args["migrations"] = rec.Migrations
				}
				ev.Args = args
			}
			if p == 2 && rec.Recvs > 0 {
				ev.Args = map[string]any{"mailbox_recvs": rec.Recvs, "fel_depth": rec.FELDepth}
			}
			evs = append(evs, ev)
			t += d
		}
		if rec.AllReduceNS > 0 {
			evs = append(evs, TraceEvent{
				Name: "all-reduce", Ph: "X",
				Ts: float64(t-rec.AllReduceNS) / 1e3, Dur: float64(rec.AllReduceNS) / 1e3,
				Pid: KernelPid, Tid: int(rec.Worker),
				Args: map[string]any{"round": rec.Round},
			})
		}
		clock[rec.Worker] = t
	}
	return evs
}

// WriteTraceJSON serializes trace events as one Chrome trace-event JSON
// file, loadable at https://ui.perfetto.dev.
func WriteTraceJSON(w io.Writer, evs []TraceEvent) error {
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

func counterEvent(name string, tNS int64, v float64) TraceEvent {
	return TraceEvent{
		Name: name, Ph: "C", Ts: float64(tNS) / 1e3,
		Pid: KernelPid, Args: map[string]any{"value": v},
	}
}

func lbtsMicros(t sim.Time) float64 {
	if t == sim.MaxTime {
		return 0
	}
	return float64(t) / 1e3
}

// roundEvents sums Events over the run of records sharing recs[i].Round
// (records are merged in (Round, Worker) order, so the run is contiguous).
func roundEvents(recs []RoundRecord, i int) uint64 {
	round := recs[i].Round
	var sum uint64
	for j := i; j >= 0 && recs[j].Round == round; j-- {
		sum += recs[j].Events
	}
	for j := i + 1; j < len(recs) && recs[j].Round == round; j++ {
		sum += recs[j].Events
	}
	return sum
}
