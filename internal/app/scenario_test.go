package app

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"unison/internal/obs"
	"unison/internal/packet"
	"unison/internal/sim"
)

// TestScenarioMarshalStable: Marshal is canonical — parsing a marshaled
// scenario and marshaling again reproduces the bytes. This is what makes
// scenario files diffable and lets tooling rewrite them without churn.
func TestScenarioMarshalStable(t *testing.T) {
	sc := DefaultScenario()
	sc.Collective = &CollectiveSpec{Pattern: "ring-allreduce", MessageBytes: 1 << 20, ChunkBytes: 64 << 10}
	requireMarshalFixedPoint(t, sc)
}

// requireMarshalFixedPoint fails unless sc's canonical form parses back
// and marshals to the same bytes.
func requireMarshalFixedPoint(t testing.TB, sc *Scenario) {
	t.Helper()
	first, err := sc.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	re, err := ParseScenario(first)
	if err != nil {
		t.Fatalf("canonical form is rejected: %v\n%s", err, first)
	}
	second, err := re.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("canonical marshal is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// exampleScenarioFiles returns every shipped examples/**/*.scenario.json.
func exampleScenarioFiles(t testing.TB) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(filepath.Join("..", "..", "examples"), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".scenario.json") {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestScenarioExampleFilesRoundTrip loads every shipped scenario file,
// requires it to build, and requires the canonical marshal of its parse
// to be a fixed point.
func TestScenarioExampleFilesRoundTrip(t *testing.T) {
	files := exampleScenarioFiles(t)
	if len(files) < 10 {
		t.Fatalf("expected the shipped scenario files under examples/, found %d", len(files))
	}
	for _, p := range files {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			sc, err := LoadScenario(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sc.Build(); err != nil {
				t.Fatalf("build: %v", err)
			}
			requireMarshalFixedPoint(t, sc)
		})
	}
}

// TestScenarioUnknownKeyPath: unknown keys are rejected with the full
// dotted path of the offending key, at any nesting depth.
func TestScenarioUnknownKeyPath(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`{"version":1,"stop":"2ms","topologgy":{}}`, "topologgy"},
		{`{"version":1,"stop":"2ms","topology":{"kind":"fattree","bwgbps":10}}`, "topology.bwgbps"},
		{`{"version":1,"stop":"2ms","topology":{"kind":"fattree"},"protocol":{"tcp":{"min_rt0":"1ms"}}}`, "protocol.tcp.min_rt0"},
		{`{"version":1,"stop":"2ms","topology":{"kind":"fattree"},"collective":{"pattern":"alltoall","message_byte":1}}`, "collective.message_byte"},
	}
	for _, tc := range cases {
		_, err := ParseScenario([]byte(tc.src))
		if err == nil {
			t.Errorf("%s: no error", tc.want)
			continue
		}
		if !strings.Contains(err.Error(), "unknown key "+tc.want) {
			t.Errorf("error %q does not name path %q", err, tc.want)
		}
	}
}

// TestScenarioVersionGate: the version key is required and must equal
// SchemaVersion exactly; forward compatibility is by adding optional
// keys, never by silently accepting a different version.
func TestScenarioVersionGate(t *testing.T) {
	for _, src := range []string{
		`{"stop":"2ms","topology":{"kind":"fattree"},"traffic":{"load":0.3}}`,
		`{"version":2,"stop":"2ms","topology":{"kind":"fattree"},"traffic":{"load":0.3}}`,
	} {
		if _, err := ParseScenario([]byte(src)); err == nil {
			t.Errorf("accepted scenario with bad version: %s", src)
		} else if !strings.Contains(err.Error(), "version") {
			t.Errorf("error %q does not mention the version", err)
		}
	}
}

// TestScenarioOverridePrecedence: -set assignments override the file;
// everything else keeps the file's values.
func TestScenarioOverridePrecedence(t *testing.T) {
	sc, err := ParseScenario([]byte(`{
  "version": 1, "seed": 7, "stop": "2ms",
  "topology": {"kind": "fattree", "k": 8},
  "traffic": {"load": 0.5},
  "kernel": {"kind": "barrier"}
}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err = sc.Set([]string{"seed=99", "kernel.kind=unison", "kernel.threads=8"})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 99 || sc.Kernel.Kind != "unison" || sc.Kernel.Threads != 8 {
		t.Fatalf("assignments not applied: %+v", sc)
	}
	if sc.Topology.K != 8 || sc.Traffic.Load != 0.5 || sim.Time(sc.Stop) != 2*sim.Millisecond {
		t.Fatalf("untouched fields perturbed: %+v", sc)
	}
}

// TestScenarioOverrideCreatesTraffic: a workload assignment on a
// collective-only scenario creates the traffic section rather than
// failing on the missing object.
func TestScenarioOverrideCreatesTraffic(t *testing.T) {
	sc := DefaultScenario()
	sc.Traffic = nil
	sc.Collective = &CollectiveSpec{Pattern: "alltoall", MessageBytes: 1 << 20}
	sc, err := sc.Set([]string{"traffic.load=0.4"})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Traffic == nil || sc.Traffic.Load != 0.4 {
		t.Fatalf("load assignment did not create the traffic section: %+v", sc.Traffic)
	}
	if sc.Collective == nil || sc.Collective.Pattern != "alltoall" {
		t.Fatalf("collective section perturbed: %+v", sc.Collective)
	}
}

// TestScenarioSet: every scenario flag the CLIs used to have, in its
// -set form, yields the scenario that flag produced and leaves every other
// key alone; malformed assignments fail with the message a file gives.
func TestScenarioSet(t *testing.T) {
	victim := 3
	cases := []struct {
		name    string // the flag this assignment replaces, if any
		base    *Scenario
		assigns []string
		want    func(*Scenario)
		err     string
	}{
		{"unisim -topo", nil, []string{"topology.kind=torus"}, func(sc *Scenario) { sc.Topology.Kind = "torus" }, ""},
		{"unisim/unidist -k", nil, []string{"topology.k=8"}, func(sc *Scenario) { sc.Topology.K = 8 }, ""},
		{"unisim -rows", nil, []string{"topology.rows=3"}, func(sc *Scenario) { sc.Topology.Rows = 3 }, ""},
		{"unisim -cols", nil, []string{"topology.cols=5"}, func(sc *Scenario) { sc.Topology.Cols = 5 }, ""},
		{"unisim -n", nil, []string{"topology.n=8"}, func(sc *Scenario) { sc.Topology.N = 8 }, ""},
		{"unisim -bw", nil, []string{"topology.bw_gbps=1"}, func(sc *Scenario) { sc.Topology.BwGbps = 1 }, ""},
		{"unisim -delay", nil, []string{"topology.delay=5us"}, func(sc *Scenario) { sc.Topology.Delay = Duration(5 * sim.Microsecond) }, ""},
		{"unisim -kernel", nil, []string{"kernel.kind=sequential"}, func(sc *Scenario) { sc.Kernel.Kind = "sequential" }, ""},
		{"unisim -threads", nil, []string{"kernel.threads=8"}, func(sc *Scenario) { sc.Kernel.Threads = 8 }, ""},
		{"unisim/unidist -stop", nil, []string{"stop=500us"}, func(sc *Scenario) { sc.Stop = Duration(500 * sim.Microsecond) }, ""},
		{"unisim/unidist -load", nil, []string{"traffic.load=0.4"}, func(sc *Scenario) { sc.Traffic.Load = 0.4 }, ""},
		{"unisim -incast", nil, []string{"traffic.incast=0.5"}, func(sc *Scenario) { sc.Traffic.Incast = 0.5 }, ""},
		{"unisim -victim", nil, []string{"traffic.victim=3"}, func(sc *Scenario) { sc.Traffic.Victim = &victim }, ""},
		{"unisim/unidist -seed", nil, []string{"seed=7"}, func(sc *Scenario) { sc.Seed = 7 }, ""},
		{"unisim -websearch", nil, []string{"traffic.sizes=websearch"}, func(sc *Scenario) { sc.Traffic.Sizes = "websearch" }, ""},
		{"unisim -stream", nil, []string{"traffic.stream=true"}, func(sc *Scenario) { sc.Traffic.Stream = true }, ""},
		{"unisim/unidist -artifacts", nil, []string{"artifacts.dir=out/"}, func(sc *Scenario) { sc.Artifacts.Dir = "out/" }, ""},
		{"seed above 2^53", nil, []string{"seed=18446744073709551557"}, func(sc *Scenario) { sc.Seed = 18446744073709551557 }, ""},
		{"stop in ns", nil, []string{"stop=500000"}, func(sc *Scenario) { sc.Stop = Duration(500 * sim.Microsecond) }, ""},
		{"in order", nil, []string{"kernel.kind=barrier", "seed=1", "kernel.kind=hybrid"}, func(sc *Scenario) { sc.Kernel.Kind, sc.Seed = "hybrid", 1 }, ""},
		{"null removes", nil, []string{"traffic.victim=3", "traffic.victim=null"}, func(*Scenario) {}, ""},
		{"unknown key", nil, []string{"topology.kk=1"}, nil, "unknown key topology.kk"},
		{"through a non-object", nil, []string{"stop.x=1"}, nil, "stop is not an object"},
		{"no value", nil, []string{"seed"}, nil, "want path=value"},
		{"bad duration", nil, []string{"stop=soon"}, nil, `bad duration "soon"`},
		{"bad enum", nil, []string{"kernel.kind=warp"}, nil, `unknown kernel.kind "warp"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := c.base
			if base == nil {
				base = DefaultScenario()
			}
			before, _ := base.Marshal()
			got, err := base.Set(c.assigns)
			if after, _ := base.Marshal(); !bytes.Equal(before, after) {
				t.Fatalf("Set modified its receiver")
			}
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("Set(%q) = %v, want an error containing %q", c.assigns, err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Set(%q): %v", c.assigns, err)
			}
			want, _ := ParseScenario(before)
			c.want(want)
			if !reflect.DeepEqual(got, want) {
				gb, _ := got.Marshal()
				wb, _ := want.Marshal()
				t.Fatalf("Set(%q):\n%s\nwant:\n%s", c.assigns, gb, wb)
			}
		})
	}
}

// TestScenarioValidation covers the load- and build-time rejections that
// would otherwise surface as confusing assembly failures or panics.
func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"no workload", func(sc *Scenario) { sc.Traffic = nil }, "traffic"},
		{"zero stop", func(sc *Scenario) { sc.Stop = 0 }, "stop"},
		{"bad topology", func(sc *Scenario) { sc.Topology.Kind = "hypercube" }, "topology"},
		{"removed router", func(sc *Scenario) { sc.Routing.Kind = "nix" }, `unknown routing.kind "nix" (ecmp | rip)`},
		{"bad kernel", func(sc *Scenario) { sc.Kernel.Kind = "warp" }, "kernel"},
		{"bad incast", func(sc *Scenario) { sc.Traffic.Incast = 1.5 }, "incast"},
		{"negative victim", func(sc *Scenario) { v := -1; sc.Traffic.Victim = &v }, "victim"},
		{"stream nullmsg", func(sc *Scenario) { sc.Traffic.Stream = true; sc.Kernel.Kind = "nullmsg" }, "stream"},
		{"bad collective", func(sc *Scenario) {
			sc.Collective = &CollectiveSpec{Pattern: "broadcast", MessageBytes: 1}
		}, "pattern"},
		{"fat-tree ranks", func(sc *Scenario) { sc.Kernel.Ranks = 3 }, "3 ranks do not evenly divide 4 clusters"},
		{"spine-leaf ranks", func(sc *Scenario) {
			sc.Topology = TopologySpec{Kind: "spineleaf", Leaves: 3}
			sc.Kernel.Ranks = 2
		}, "2 ranks do not evenly divide 3 leaves"},
		{"torus ranks", func(sc *Scenario) {
			sc.Topology = TopologySpec{Kind: "torus", Rows: 3, Cols: 3}
			sc.Kernel.Ranks = 10
		}, "invalid rank count 10 for 9 torus nodes"},
	}
	for _, tc := range cases {
		sc := DefaultScenario()
		tc.mutate(sc)
		_, err := sc.Build()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// A file in any other syntax is told what the format is.
	toml := filepath.Join(t.TempDir(), "x.scenario.toml")
	if err := os.WriteFile(toml, []byte("version = 1\nstop = \"2ms\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenario(toml); err == nil || !strings.Contains(err.Error(), "scenario files are JSON") {
		t.Errorf("x.scenario.toml: want a \"scenario files are JSON\" error, got %v", err)
	}
}

// TestDurationForms: durations unmarshal from strings and bare
// nanosecond integers, and marshal back as strings.
func TestDurationForms(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"250us"`)); err != nil || sim.Time(d) != 250*sim.Microsecond {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`2000000`)); err != nil || sim.Time(d) != 2*sim.Millisecond {
		t.Fatalf("int form: %v %v", d, err)
	}
	out, err := Duration(2 * sim.Millisecond).MarshalJSON()
	if err != nil || string(out) != `"2ms"` {
		t.Fatalf("marshal: %s %v", out, err)
	}
}

// TestScenarioVictimReachesGenerator: the victim index is resolved to a
// host NodeID with HasVictim set, so host 0 is a legal target.
func TestScenarioVictimReachesGenerator(t *testing.T) {
	sc := DefaultScenario()
	sc.Traffic.Incast = 0.5
	sc.Kernel.Kind = "sequential"
	v := 0
	sc.Traffic.Victim = &v
	b, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunKernel(b.Sim.Model()); err != nil {
		t.Fatal(err)
	}
	// Host 0's node must terminate a meaningful share of flows; with the
	// generator default (last host) it would receive almost none.
	target := b.Hosts[0]
	var at, total int
	for i := 0; i < b.Sim.Mon.Flows(); i++ {
		rec := b.Sim.Mon.Sender(packet.FlowID(i))
		if rec.Bytes == 0 {
			continue // never started before stop
		}
		total++
		if rec.Dst == target {
			at++
		}
	}
	if total == 0 || at*3 < total {
		t.Fatalf("victim host 0 received %d/%d flows; incast redirect not applied", at, total)
	}
}

// TestBundleWorkersAndKernelLanes: a bundle's meta.json names the worker
// count that ran, not the kernel.threads default, and its Perfetto trace
// carries the observing registry's lanes — one named kernel process, one
// thread per worker.
func TestBundleWorkersAndKernelLanes(t *testing.T) {
	for _, k := range []KernelSpec{{Kind: "sequential"}, {Kind: "unison", Threads: 2}, {Kind: "barrier"}} {
		sc := DefaultScenario()
		sc.Stop = Duration(500 * sim.Microsecond)
		sc.Kernel = k
		b, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry(0)
		b.Observe = reg
		st, err := b.RunKernel(b.Sim.Model())
		if err != nil {
			t.Fatalf("%s: %v", k.Kind, err)
		}
		dir := t.TempDir()
		if _, err := b.Bundle("test", st, nil, reg).Write(dir); err != nil {
			t.Fatal(err)
		}
		var meta struct{ Workers int }
		var stats struct{ Workers []json.RawMessage }
		var trace struct {
			TraceEvents []struct {
				Name string
				Pid  int
				Args struct{ Name string }
			}
		}
		for file, v := range map[string]any{"meta.json": &meta, "run_stats.json": &stats, "trace.perfetto.json": &trace} {
			raw, err := os.ReadFile(filepath.Join(dir, file))
			if err == nil {
				err = json.Unmarshal(raw, v)
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", k.Kind, file, err)
			}
		}
		if meta.Workers != len(stats.Workers) || meta.Workers == 0 {
			t.Errorf("%s: meta.json says %d workers, run_stats.json lists %d", k.Kind, meta.Workers, len(stats.Workers))
		}
		process, lanes := "", 0
		for _, ev := range trace.TraceEvents {
			switch {
			case ev.Pid != obs.KernelPid:
			case ev.Name == "process_name":
				process = ev.Args.Name
			case ev.Name == "thread_name":
				lanes++
			}
		}
		if process != "unison "+st.Kernel || lanes != len(stats.Workers) {
			t.Errorf("%s: kernel process %q with %d lanes, want %q with %d", k.Kind, process, lanes, "unison "+st.Kernel, len(stats.Workers))
		}
	}
}
