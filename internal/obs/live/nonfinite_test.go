package live

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"unison/internal/coll"
	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/sim"
)

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
// bad ratio left unscrubbed costs the whole snapshot or artifact.
func TestJSONOutputsSurviveNonFiniteFloats(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			// unimon -once and -json: Scrub, then MarshalIndent or Encode.
			var snap Snapshot
			if n := plantFloats(reflect.ValueOf(&snap), bad); n == 0 {
				t.Fatal("Snapshot has no float field to plant")
			}
			snap.Scrub()
			out, err := json.MarshalIndent(&snap, "", "  ")
			if err != nil || !json.Valid(out) {
				t.Fatalf("unimon -once: %v", err)
			}
			var nd bytes.Buffer
			if err := json.NewEncoder(&nd).Encode(&snap); err != nil || !json.Valid(nd.Bytes()) {
				t.Fatalf("unimon -json: %v", err)
			}

			// /live and /live/sse serve the run's final stats; the
			// clients parse every body they receive.
			final := &sim.RunStats{}
			plantFloats(reflect.ValueOf(final), bad)
			state, _ := newState(1000, obs.RunMeta{})
			state.Finalize(final)
			srv, err := NewServer(state, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := Fetch(ctx, srv.Addr()); err != nil {
				t.Fatalf("/live: %v", err)
			}
			frames := 0
			if err := Watch(ctx, srv.Addr(), func(sn *Snapshot) bool {
				frames++
				return !sn.Done
			}); err != nil || frames == 0 {
				t.Fatalf("/live/sse: %d frames, %v", frames, err)
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
