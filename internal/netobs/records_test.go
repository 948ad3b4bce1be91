package netobs

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"unison/internal/obs"
	"unison/internal/sim"
)

// stream is a valid record stream, one line of each kind and two rounds.
func stream() []Record {
	return []Record{
		{Meta: &StreamMeta{Schema: RecordsSchema, Tool: "t", Kernel: "k", Workers: 2, LPs: 4, StopNS: 9000, IntervalNS: 100, StartUnixNS: 1_700_000_000_000_000_000}},
		{Round: &obs.RoundRecord{Round: 0, Worker: 1, LBTS: 500, Events: 7, ProcNS: 30, SyncNS: 4, MsgNS: 2, FELDepth: 3, CkptNS: 11, Fused: true}},
		{Row: &Row{Tick: 100, Node: 3, Link: 1, Depth: 2, MaxDepth: 5, Drops: 1, TxBytes: 1500, BW: 1e9}},
		{Round: &obs.RoundRecord{Round: 1, Worker: 0, LBTS: sim.MaxTime, Events: 1}},
		{Stats: &sim.RunStats{Kernel: "k", Events: 8, Rounds: 2, Workers: []sim.WorkerStats{{Events: 8}},
			Imbalance: &sim.Imbalance{Rounds: 1, MeanMaxOverMean: 1.25, WorstMaxOverMean: 1.5, StragglerShare: 0.5}}},
	}
}

func encode(t testing.TB, recs []Record) []byte {
	var out []byte
	for i := range recs {
		var err error
		if out, err = AppendRecord(out, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestRecordsRoundTrip(t *testing.T) {
	want := stream()
	raw := encode(t, want)
	var got []Record
	var lines [][]byte
	if err := ReadRecords(bytes.NewReader(raw), func(line []byte, r *Record) error {
		got, lines = append(got, *r), append(lines, line)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !bytes.Equal(bytes.Join(lines, nil), raw) {
		t.Fatalf("decoded %d records from %q", len(got), raw)
	}
	if err := ReadRecords(bytes.NewReader(raw[:len(raw)-1]), func([]byte, *Record) error { return nil }); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a stream cut inside its last line read as %v", err)
	}
}

// TestRecordLinesHaveOneKind: a line that is not exactly one record of a
// known schema does not decode, and none encodes.
func TestRecordLinesHaveOneKind(t *testing.T) {
	for _, line := range []string{
		``, `{}`, `null`, `[]`, `{"round":null}`, `{"x":1}`,
		`{"round":{},"row":{}}`,
		`{"meta":{"schema":"unison-live/1"}}`,
		`{"round":{"round":-1}}`,
		`{"round":{}} {"round":{}}`,
	} {
		if r, err := DecodeRecord([]byte(line)); err == nil {
			t.Errorf("%q decoded to %+v", line, r)
		}
	}
	for _, r := range []Record{{}, {Round: &obs.RoundRecord{}, Row: &Row{}}} {
		if _, err := AppendRecord(nil, &r); err == nil {
			t.Errorf("%+v encoded", r)
		}
	}
}

// FuzzRecords: arbitrary bytes never panic the decoder; a line either
// decodes to exactly one record or errors; and a decoded record survives
// encode∘decode unchanged.
func FuzzRecords(f *testing.F) {
	f.Add(encode(f, stream()))
	f.Add([]byte(`{"round":{"round":1},"Round":{"events":2}}` + "\n"))
	f.Add([]byte(`{"stats":{"imbalance":{"mean_max_over_mean":1e308}}}` + "\n" + `{"row":{"tick":-1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = ReadRecords(bytes.NewReader(data), func([]byte, *Record) error { return nil })
		for _, line := range strings.Split(string(data), "\n") {
			r, err := DecodeRecord([]byte(line))
			if err != nil {
				continue
			}
			if n := r.kinds(); n != 1 {
				t.Fatalf("%q decoded to %d kinds", line, n)
			}
			enc, err := AppendRecord(nil, &r)
			if err != nil {
				t.Fatalf("%q decoded but does not encode: %v", line, err)
			}
			back, err := DecodeRecord(bytes.TrimSuffix(enc, []byte("\n")))
			if err != nil || !reflect.DeepEqual(back, r) {
				t.Fatalf("%q: re-encoded as %q, which decodes to %+v (%v)", line, enc, back, err)
			}
		}
	})
}
