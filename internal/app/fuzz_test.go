package app

import (
	"os"
	"testing"
)

// FuzzParseScenario feeds arbitrary bytes to the scenario decoder — the
// one path by which a file from outside the program becomes a Scenario —
// and checks two properties: it never panics, and any input it accepts
// marshals to a canonical form that is a fixed point of
// Marshal → ParseScenario → Marshal (so no accepted value is lost,
// reinterpreted or rejected on the way back in). The seeds are every
// shipped examples/**/*.scenario.json plus a few rejections. CI runs it
// with -fuzz=FuzzParseScenario -fuzztime=10s as a smoke pass.
func FuzzParseScenario(f *testing.F) {
	for _, p := range exampleScenarioFiles(f) {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte(`{"version":1,"stop":2000000,"topology":{"kind":"fattree"},"traffic":{"load":0.3}}`))
	f.Add([]byte(`{"version":1,"stop":"2ms","topology":{"kind":"fattree","bwgbps":10}}`))
	f.Add([]byte("version = 1\nstop = \"2ms\"\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if sc, err := ParseScenario(data); err == nil {
			requireMarshalFixedPoint(t, sc)
		}
	})
}

// FuzzScenarioSet applies an arbitrary -set assignment, which comes from
// outside the program as a file does, to each shipped scenario and to
// DefaultScenario: Set never panics, and any scenario it accepts is a
// fixed point of the canonical marshal. CI runs it next to
// FuzzParseScenario.
func FuzzScenarioSet(f *testing.F) {
	bases := []*Scenario{DefaultScenario()}
	for _, p := range exampleScenarioFiles(f) {
		sc, err := LoadScenario(p)
		if err != nil {
			f.Fatal(err)
		}
		bases = append(bases, sc)
	}
	for _, a := range []string{
		"topology.k=8", "stop=500us", "stop=500000", "seed=18446744073709551557",
		"traffic.victim=null", "traffic.load=0.4", "collective.pattern=alltoall",
		`kernel={"kind":"barrier"}`, "topology.kk=1", "stop.x=1", "=", ".", "a..b=1",
		"topology.bw_gbps=1e400", "traffic=null",
	} {
		f.Add(a)
	}
	f.Fuzz(func(t *testing.T, assign string) {
		for _, base := range bases {
			if sc, err := base.Set([]string{assign}); err == nil {
				requireMarshalFixedPoint(t, sc)
			}
		}
	})
}
