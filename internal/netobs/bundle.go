package netobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"unison/internal/flowmon"
	"unison/internal/obs"
	"unison/internal/sim"
	"unison/internal/trace"
)

// A Bundle is one run's artifact directory — everything needed to
// reproduce a paper figure from a single run, in one place:
//
//	meta.json           run provenance (tool, kernel, seed, topology, git sha)
//	run_stats.json      kernel-side statistics (sim.RunStats)
//	flow_report.json    flowmon.FlowReport (percentile FCTs, slowdowns, goodput)
//	series.csv          sampler time series (queue depth, drops, marks, util)
//	trace.pcapng        packet trace, openable in Wireshark
//	trace.perfetto.json combined kernel-lane + network-track Perfetto trace
//	records.ndjson      the record stream (records.go), written by the CLIs
//	                    while the run goes; its last line, the final stats,
//	                    lands after every other file
//
// series.csv and the Perfetto trace's kernel lanes and counter tracks are
// rendered from records.ndjson: the stream is the one copy of a run's
// round records and sampler rows. Files whose inputs are absent (nil
// trace, no stream, no rows...) are skipped, so a bundle is useful even
// from a tool that only has a subset wired up.

// Meta is the provenance header written as meta.json.
type Meta struct {
	Tool     string `json:"tool"`
	Kernel   string `json:"kernel"`
	Topology string `json:"topology,omitempty"`
	Seed     uint64 `json:"seed"`
	Workers  int    `json:"workers,omitempty"`
	StopNS   int64  `json:"stop_ns,omitempty"`
	Flows    int    `json:"flows,omitempty"`
	GitSHA   string `json:"git_sha,omitempty"`
	Go       string `json:"go_version"`
	Note     string `json:"note,omitempty"`
}

// GitSHA returns the vcs revision stamped into the binary by the Go
// toolchain, or "" when built without vcs info (go test, bazel...).
func GitSHA() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// Bundle collects one run's outputs for writing. Nil/empty fields skip
// their file.
type Bundle struct {
	Meta  Meta
	Stats *sim.RunStats

	// Mon yields flow_report.json and the pcapng flow table.
	Mon *flowmon.Monitor
	// RefBandwidth feeds the slowdown columns (0 disables them).
	RefBandwidth int64

	// Trace yields trace.pcapng (records in merged order).
	Trace []trace.Record

	// Coll yields coll_report.json — the collective-communication
	// completion summary (a *coll.Report; typed as any because netobs
	// sits below the workload layer in the import graph).
	Coll any
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// streamed is what the files rendered from a record stream read of it.
type streamed struct {
	meta     obs.RunMeta
	interval sim.Time
	recs     []obs.RoundRecord // in (Round, Worker) order, as Registry.Records
	rows     []Row             // in canonical order, as Sampler.Rows
}

// readStream reads the record stream at path; a missing file holds
// nothing. Its row lines are every row the run's sampler closed: a
// restored sampler's feed resends the rows it had at its first pause
// (Sampler.Feed), so a restored run's stream holds the whole run's.
func readStream(path string) (streamed, error) {
	var s streamed
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return s, err
	}
	defer f.Close()
	err = ReadRecords(f, func(_ []byte, r *Record) error {
		switch {
		case r.Meta != nil:
			s.meta = obs.RunMeta{Kernel: r.Meta.Kernel, Workers: r.Meta.Workers, LPs: r.Meta.LPs}
			s.interval = sim.Time(r.Meta.IntervalNS)
		case r.Round != nil:
			s.recs = append(s.recs, *r.Round)
		case r.Row != nil:
			s.rows = append(s.rows, *r.Row)
		}
		return nil
	})
	if s.interval <= 0 {
		s.interval = DefaultInterval
	}
	obs.SortRecords(s.recs)
	SortRows(s.rows)
	return s, err
}

// Write materializes the bundle under dir, creating it if needed, and
// returns the list of files written (relative to dir). series.csv and the
// Perfetto trace's kernel lanes are rendered from the record stream
// already in dir (RecordsFile), so every line of it must be on disk first.
func (b *Bundle) Write(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var files []string
	fail := func(name string, err error) ([]string, error) {
		return files, fmt.Errorf("netobs: writing %s: %w", name, err)
	}
	s, err := readStream(filepath.Join(dir, RecordsFile))
	if err != nil {
		return nil, fmt.Errorf("netobs: reading %s: %w", RecordsFile, err)
	}
	if b.Meta.Go == "" {
		b.Meta.Go = runtime.Version()
	}
	if b.Meta.GitSHA == "" {
		b.Meta.GitSHA = GitSHA()
	}
	if err := writeJSON(filepath.Join(dir, "meta.json"), &b.Meta); err != nil {
		return fail("meta.json", err)
	}
	files = append(files, "meta.json")

	if b.Stats != nil {
		finite(b.Stats) // as the record stream's stats line does
		if err := writeJSON(filepath.Join(dir, "run_stats.json"), b.Stats); err != nil {
			return fail("run_stats.json", err)
		}
		files = append(files, "run_stats.json")
	}

	if b.Mon != nil {
		rep := b.Mon.Report(flowmon.ReportConfig{RefBandwidthBps: b.RefBandwidth})
		f, err := os.Create(filepath.Join(dir, "flow_report.json"))
		if err != nil {
			return fail("flow_report.json", err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return fail("flow_report.json", err)
		}
		if err := f.Close(); err != nil {
			return fail("flow_report.json", err)
		}
		files = append(files, "flow_report.json")
	}

	if b.Coll != nil {
		if err := writeJSON(filepath.Join(dir, "coll_report.json"), b.Coll); err != nil {
			return fail("coll_report.json", err)
		}
		files = append(files, "coll_report.json")
	}

	if len(s.rows) > 0 {
		f, err := os.Create(filepath.Join(dir, "series.csv"))
		if err != nil {
			return fail("series.csv", err)
		}
		if err := WriteCSV(f, s.rows, s.interval); err != nil {
			f.Close()
			return fail("series.csv", err)
		}
		if err := f.Close(); err != nil {
			return fail("series.csv", err)
		}
		files = append(files, "series.csv")
	}

	if len(b.Trace) > 0 {
		var flows FlowLookup
		if b.Mon != nil {
			flows = FlowTable(b.Mon)
		}
		f, err := os.Create(filepath.Join(dir, "trace.pcapng"))
		if err != nil {
			return fail("trace.pcapng", err)
		}
		if err := WritePcapng(f, b.Trace, flows); err != nil {
			f.Close()
			return fail("trace.pcapng", err)
		}
		if err := f.Close(); err != nil {
			return fail("trace.pcapng", err)
		}
		files = append(files, "trace.pcapng")
	}

	if len(s.rows) > 0 || len(s.recs) > 0 || b.Mon != nil {
		var flows []FlowSlice
		if b.Mon != nil {
			flows = FlowSlices(b.Mon)
		}
		f, err := os.Create(filepath.Join(dir, "trace.perfetto.json"))
		if err != nil {
			return fail("trace.perfetto.json", err)
		}
		if err := WriteCombinedPerfetto(f, s.meta, s.recs, s.rows, s.interval, flows); err != nil {
			f.Close()
			return fail("trace.perfetto.json", err)
		}
		if err := f.Close(); err != nil {
			return fail("trace.perfetto.json", err)
		}
		files = append(files, "trace.perfetto.json")
	}
	return files, nil
}
