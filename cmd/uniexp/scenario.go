package main

import (
	"fmt"
	"os"
	"time"

	"unison"
	"unison/internal/experiments"
	"unison/internal/obs/live"
	"unison/internal/sim"
)

// runScenario is the -scenario mode: it runs one declarative scenario
// across the whole kernel set and checks that every kernel produces the
// same result fingerprint — a parallel-efficiency experiment for an
// arbitrary user workload rather than a canned one. With liveAddr set,
// every kernel run streams telemetry to attached watchers; each run's
// BeginRun resets the live view, so a watcher sees the kernels go by one
// after another.
func runScenario(path string, seed uint64, seedSet bool, liveAddr string, linger time.Duration) error {
	base, err := unison.LoadScenario(path)
	if err != nil {
		return err
	}
	if seedSet {
		base.Seed = seed
	}

	var lsess *live.Session
	if liveAddr != "" {
		lsess, err = live.StartSession("uniexp", base.Stop.T(), liveAddr, nil)
		if err != nil {
			return fmt.Errorf("live: %w", err)
		}
		// Closed on every return: a kernel error must not leave the HTTP
		// session open. Only a completed sweep records a final snapshot.
		defer lsess.Close()
		lsess.SetLinger(linger)
		fmt.Printf("live http://%s/live\n", lsess.Server.Addr())
	}

	type kspec struct {
		name    string
		kind    string
		threads int
	}
	probe, err := base.Build()
	if err != nil {
		return err
	}
	ks := []kspec{
		{"sequential", "sequential", 1},
		{"unison-2", "unison", 2},
		{"unison-4", "unison", 4},
	}
	if probe.ManualFor != nil {
		ks = append(ks, kspec{"hybrid-4", "hybrid", 4}, kspec{"barrier", "barrier", 1})
		if base.Traffic == nil || !base.Traffic.Stream {
			// Streaming workloads need a kernel that accepts global
			// events, which the null-message kernel does not.
			ks = append(ks, kspec{"nullmsg", "nullmsg", 1})
		}
	}

	tab := &experiments.Table{
		ID:      "scenario",
		Title:   fmt.Sprintf("%s across kernels (seed %d)", path, base.Seed),
		Columns: []string{"kernel", "wall s", "speedup", "events", "fingerprint", "collective"},
	}
	var seqWall float64
	var refFP uint64
	refSet, agree := false, true
	var lastSt *sim.RunStats
	for _, k := range ks {
		sc := *base
		sc.Kernel = unison.KernelSpec{Kind: k.kind, Threads: k.threads}
		b, err := sc.Build()
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		if lsess != nil {
			b.Observe = lsess.Probe()
			b.Progress = 50_000
		}
		start := time.Now()
		st, err := b.RunKernel(b.Sim.Model())
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		wall := time.Since(start).Seconds()
		lastSt = st
		fp := b.Sim.Mon.Fingerprint()
		if !refSet {
			refFP, refSet = fp, true
		} else if fp != refFP {
			agree = false
		}
		speedup := "-"
		if k.name == "sequential" {
			seqWall = wall
		} else if seqWall > 0 && wall > 0 {
			speedup = fmt.Sprintf("%.2fx", seqWall/wall)
		}
		collCell := "-"
		if cr := b.Sim.CollReport(b.Sim.Mon); cr != nil {
			if cr.CompletionNS >= 0 {
				collCell = fmt.Sprintf("%s %.3f ms", cr.Pattern, float64(cr.CompletionNS)/1e6)
			} else {
				collCell = fmt.Sprintf("%s incomplete", cr.Pattern)
			}
		}
		tab.AddRow(k.name, fmt.Sprintf("%.3f", wall), speedup,
			fmt.Sprint(st.Events), fmt.Sprintf("%016x", fp), collCell)
	}
	if lsess != nil {
		lsess.Finish(lastSt)
	}
	if agree {
		tab.Note("all kernels agree on result fingerprint %016x", refFP)
	} else {
		tab.Note("FINGERPRINT MISMATCH: kernels disagree — determinism bug")
	}
	tab.Render(os.Stdout)
	if !agree {
		return fmt.Errorf("kernels disagree on the result fingerprint")
	}
	return nil
}
