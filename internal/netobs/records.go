package netobs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"unison/internal/obs"
	"unison/internal/sim"
)

// The record stream is a run's telemetry as one versioned NDJSON file,
// RecordsFile in the bundle and the body GET /live serves while the run
// goes. Its first line is the meta record, then come the round records and
// the sampler row deltas as they happen, and its last line is the run's
// final stats — the value run_stats.json holds. AppendRecord is its one
// encoder and DecodeRecord its one decoder.
const (
	RecordsSchema = "unison-records/1"
	RecordsFile   = "records.ndjson"
)

// StreamMeta is the stream's first line: which run the records belong to.
type StreamMeta struct {
	Schema  string `json:"schema"`
	Tool    string `json:"tool"`
	Kernel  string `json:"kernel"`
	Workers int    `json:"workers"`
	LPs     int    `json:"lps"`
	StopNS  int64  `json:"stop_ns,omitempty"`
	// IntervalNS is the sampler's bucket width: the row lines' utilization.
	IntervalNS int64 `json:"interval_ns,omitempty"`
	// StartUnixNS is the wall-clock time the run began.
	StartUnixNS int64 `json:"start_unix_ns"`
}

// Record is one line of the stream; exactly one field is set.
type Record struct {
	Meta  *StreamMeta      `json:"meta,omitempty"`
	Round *obs.RoundRecord `json:"round,omitempty"`
	Row   *Row             `json:"row,omitempty"`
	Stats *sim.RunStats    `json:"stats,omitempty"`
}

func (r *Record) kinds() int {
	n := 0
	for _, set := range []bool{r.Meta != nil, r.Round != nil, r.Row != nil, r.Stats != nil} {
		if set {
			n++
		}
	}
	return n
}

// AppendRecord appends r to dst as one line. Non-finite floats, which
// encoding/json refuses, are set to 0 in r first: one bad ratio costs that
// number, not the line.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	if n := r.kinds(); n != 1 {
		return dst, fmt.Errorf("netobs: a record has one kind, not %d", n)
	}
	if r.Stats != nil {
		finite(r.Stats)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return dst, err
	}
	return append(append(dst, b...), '\n'), nil
}

// DecodeRecord parses one line of the stream, without its newline.
func DecodeRecord(line []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return Record{}, fmt.Errorf("netobs: record: %w", err)
	}
	if n := r.kinds(); n != 1 {
		return Record{}, fmt.Errorf("netobs: record of %d kinds, want 1", n)
	}
	if r.Meta != nil && r.Meta.Schema != RecordsSchema {
		return Record{}, fmt.Errorf("netobs: record stream schema %q, want %q", r.Meta.Schema, RecordsSchema)
	}
	return r, nil
}

// ReadRecords decodes the stream from rd line by line, handing fn each raw
// line (newline included) and its record, until rd ends, fn fails or a
// line does not decode. A stream cut inside a line is io.ErrUnexpectedEOF.
func ReadRecords(rd io.Reader, fn func(line []byte, r *Record) error) error {
	br := bufio.NewReader(rd)
	for {
		line, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			if len(line) > 0 {
				return io.ErrUnexpectedEOF
			}
			return nil
		}
		if err != nil {
			return err
		}
		r, err := DecodeRecord(line[:len(line)-1])
		if err != nil {
			return err
		}
		if err := fn(line, &r); err != nil {
			return err
		}
	}
}

// finite sets a non-finite imbalance ratio, RunStats' only floats, to 0.
func finite(st *sim.RunStats) {
	if im := st.Imbalance; im != nil {
		for _, f := range []*float64{&im.MeanMaxOverMean, &im.WorstMaxOverMean, &im.StragglerShare} {
			if math.IsNaN(*f) || math.IsInf(*f, 0) {
				*f = 0
			}
		}
	}
}
