package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"unison/internal/coll"
	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/sim"
)

// follow attaches a watcher to s's /live endpoint, serving it first, and
// returns the channel the whole body arrives on.
func follow(t *testing.T, s *Stream) chan []byte {
	t.Helper()
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return get(t, addr)
}

func get(t *testing.T, addr string) chan []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/live")
	if err != nil {
		t.Fatal(err)
	}
	body := make(chan []byte, 1)
	go func() {
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- b
	}()
	return body
}

// fold reads a stream as a watcher does: a Registry over its round lines,
// and its last line's stats.
func fold(t *testing.T, raw []byte) (*obs.Registry, *sim.RunStats) {
	t.Helper()
	reg := obs.NewRegistry(1)
	var last *sim.RunStats
	err := netobs.ReadRecords(bytes.NewReader(raw), func(_ []byte, r *netobs.Record) error {
		if r.Meta != nil {
			reg.BeginRun(obs.RunMeta{Kernel: r.Meta.Kernel, Workers: r.Meta.Workers, LPs: r.Meta.LPs})
		} else if r.Round != nil {
			reg.OnRound(r.Round)
		}
		last = r.Stats
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, last
}

// TestConcurrentWritersExactTotals: four workers report through the stream
// while a watcher follows /live; nothing is dropped, so the watcher's fold
// is exact, and it read the file byte for byte.
func TestConcurrentWritersExactTotals(t *testing.T) {
	const workers, rounds = 4, 10_000
	path := filepath.Join(t.TempDir(), netobs.RecordsFile)
	s, err := Create(path, "test", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	watched := follow(t, s)
	s.BeginRun(obs.RunMeta{Kernel: "k", Workers: workers, LPs: workers})
	var writers sync.WaitGroup
	for w := range int32(workers) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for r := range uint64(rounds) {
				s.OnRound(&obs.RoundRecord{Round: r, Worker: w, Events: 3, ProcNS: 2, SyncNS: 1})
			}
		}()
	}
	writers.Wait()
	if err := s.Finish(&sim.RunStats{Kernel: "k", Events: workers * rounds * 3}); err != nil {
		t.Fatal(err)
	}
	got := <-watched
	if file, err := os.ReadFile(path); err != nil || !bytes.Equal(got, file) {
		t.Fatalf("the watcher read %d B; the file has %d B (%v)", len(got), len(file), err)
	}
	reg, final := fold(t, got)
	lanes, dropped := reg.Totals()
	if final == nil || final.Events != workers*rounds*3 || dropped != 0 || len(lanes) != workers {
		t.Fatalf("final %+v, %d dropped, %d lanes", final, dropped, len(lanes))
	}
	for w, l := range lanes {
		if l.Records != rounds || l.Events != rounds*3 || l.ProcNS != 2*rounds || l.SyncNS != rounds || l.Round != rounds-1 {
			t.Fatalf("worker %d: %+v", w, l)
		}
	}
}

// TestOutOfRangeWorkerAddsNoView: a record naming a worker the run does
// not have (a garbled sideband record, say) is written as it came; a
// watcher's fold drops it and adds no lane for it.
func TestOutOfRangeWorkerAddsNoView(t *testing.T) {
	s, err := Create("", "test", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.BeginRun(obs.RunMeta{Kernel: "dist(2)", Workers: 2})
	for _, w := range []int32{100_000, 2, 1} {
		s.OnRound(&obs.RoundRecord{Worker: w, Events: 7})
	}
	if err := s.Finish(&sim.RunStats{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := fold(t, raw)
	if lanes, dropped := reg.Totals(); len(lanes) != 2 || dropped != 2 || lanes[1].Events != 7 {
		t.Fatalf("%d lanes, %d dropped, lane 1 %+v; want 2, 2 and 7 events", len(lanes), dropped, lanes[1])
	}
}

// TestStatsLineComesLast: a watcher attached before the run reads nothing
// past the buffered records until Finish writes the stats line, then the
// whole stream; one attached after Finish reads the same bytes. A stream
// with no path is a temporary file that Close removes.
func TestStatsLineComesLast(t *testing.T) {
	s, err := Create("", "test", 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	watched := follow(t, s)
	s.BeginRun(obs.RunMeta{Kernel: "k", Workers: 1, LPs: 1})
	s.OnRound(&obs.RoundRecord{Events: 5})
	s.Rows([]netobs.Row{{Tick: 100, Node: 1, Depth: 2}})
	select {
	case b := <-watched:
		t.Fatalf("the watcher finished before the stats line: %q", b)
	case <-time.After(3 * flushEvery):
	}
	st := &sim.RunStats{Kernel: "k", Events: 5}
	if err := s.Finish(st); err != nil {
		t.Fatal(err)
	}
	early := <-watched
	late := <-get(t, s.srv.Addr())
	if _, final := fold(t, early); !bytes.Equal(early, late) || !reflect.DeepEqual(final, st) {
		t.Fatalf("early watcher read %q, late watcher %q", early, late)
	}
	if lines := bytes.Count(early, []byte("\n")); lines != 4 {
		t.Fatalf("%d lines, want meta, round, row and stats", lines)
	}
	path := s.f.Name()
	s.Close()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("temporary stream %s outlived Close: %v", path, err)
	}
}

// TestServerLinger: Close returns at once when nobody watched, and as soon
// as a watcher has read through the stats line when one did.
func TestServerLinger(t *testing.T) {
	for _, watch := range []bool{false, true} {
		s, err := Create("", "test", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var watched chan []byte
		if watch {
			watched = follow(t, s)
		}
		s.BeginRun(obs.RunMeta{Kernel: "k", Workers: 1})
		if err := s.Finish(&sim.RunStats{}); err != nil {
			t.Fatal(err)
		}
		if watch {
			<-watched
		}
		start := time.Now()
		s.Close()
		if d := time.Since(start); d > linger/2 {
			t.Fatalf("watched %t: Close took %v", watch, d)
		}
	}
}

// plantFloats sets every float reachable from v to f — allocating nil
// pointers, giving empty slices one element, descending into struct
// fields — and returns how many it set. A float field added later is
// planted without touching this test.
func plantFloats(v reflect.Value, f float64) int {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(f)
		return 1
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		return plantFloats(v.Elem(), f)
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += plantFloats(v.Index(i), f)
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += plantFloats(v.Field(i), f)
		}
		return n
	}
	return 0
}

// TestJSONOutputsSurviveNonFiniteFloats plants NaN, +Inf and -Inf in every
// float field of each JSON document the system emits and asserts it still
// encodes, into valid JSON: encoding/json refuses non-finite floats, so one
// bad ratio left unscrubbed costs the whole line or artifact.
func TestJSONOutputsSurviveNonFiniteFloats(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			// Every kind of record-stream line, through the one encoder.
			kinds := reflect.TypeOf(netobs.Record{}).NumField()
			planted := 0
			for i := range kinds {
				var r netobs.Record
				planted += plantFloats(reflect.ValueOf(&r).Elem().Field(i), bad)
				if r.Meta != nil {
					r.Meta.Schema = netobs.RecordsSchema
				}
				line, err := netobs.AppendRecord(nil, &r)
				if err != nil || !json.Valid(line) {
					t.Fatalf("%s line: %v", reflect.TypeOf(r).Field(i).Name, err)
				}
				if _, err := netobs.DecodeRecord(bytes.TrimSuffix(line, []byte("\n"))); err != nil {
					t.Fatalf("%s line: %v", reflect.TypeOf(r).Field(i).Name, err)
				}
			}
			if planted == 0 {
				t.Fatal("no record kind has a float field to plant")
			}

			// The stream's stats line, as a watcher reads it from /live.
			s, err := Create("", "test", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			watched := follow(t, s)
			s.BeginRun(obs.RunMeta{Kernel: "k", Workers: 1})
			final := &sim.RunStats{}
			plantFloats(reflect.ValueOf(final), bad)
			if err := s.Finish(final); err != nil {
				t.Fatal(err)
			}
			if _, last := fold(t, <-watched); last == nil {
				t.Fatal("/live: no stats line")
			}

			// The bundle's run_stats.json and coll_report.json.
			stats := &sim.RunStats{}
			plantFloats(reflect.ValueOf(stats), bad)
			report := &coll.Report{}
			plantFloats(reflect.ValueOf(report), bad)
			dir := t.TempDir()
			if _, err := (&netobs.Bundle{Stats: stats, Coll: report}).Write(dir); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"run_stats.json", "coll_report.json"} {
				raw, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil || !json.Valid(raw) {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}
