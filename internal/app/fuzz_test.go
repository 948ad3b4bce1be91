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
