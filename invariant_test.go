package unison_test

import (
	"testing"

	"unison"
)

// TestReceiverNeverCountsPastFlowSize runs a loss-heavy DCTCP incast
// (web-search flows, half of them onto one host, a k=6 fat-tree at 80 %
// load) and checks that no flow's receive record counts more bytes than
// the flow carries. Out-of-order segments that arrive in front of two or
// more buffered ranges are where a receiver's reassembly list can go
// wrong, and at this seed they do: a list that loses a range shows here
// as a count 2³² too high.
func TestReceiverNeverCountsPastFlowSize(t *testing.T) {
	sc := unison.DefaultScenario()
	sc.Seed = 4
	sc.Stop = unison.ScenarioDuration(5 * unison.Millisecond)
	sc.Topology.K = 6
	sc.Protocol.TCP.Variant = "dctcp"
	sc.Traffic = &unison.TrafficSpec{Load: 0.8, Sizes: "websearch", Incast: 0.5}
	sc.Kernel.Kind = "sequential"
	b, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunKernel(b.Sim.Model()); err != nil {
		t.Fatal(err)
	}
	senders, recvs := b.Sim.Mon.Export()
	if b.Sim.Net.Drops() == 0 {
		t.Fatal("no drops: the scenario no longer exercises loss recovery")
	}
	for i := range recvs {
		if got, size := recvs[i].BytesRcvd, senders[i].Bytes; got > size {
			t.Errorf("flow %d received %d bytes of a %d-byte flow", i, got, size)
		}
	}
}
