package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/simtime"
)

// fleet-10k: one op is one fleet run on the catalog fleet-10k topology
// (10k nodes, 64 shards, 1k jobs) with a seed-drawn staggered fault
// schedule, judged by chaos.FleetViolations and the catalog's fleet-10k
// Criteria. The run is shorter than the catalog's (fleetDuration) so a
// run of the benchmark holds 100 of them; the criteria still hold at that
// length.
const (
	fleetOps      = 100
	fleetFaults   = 20
	fleetDuration = 100 * simtime.Millisecond
	// Faults land in [fleetFaultStart, fleetFaultStart+fleetWindow), and
	// odd ones repair after fleetRepair, as in the catalog's schedule.
	fleetFaultStart = 10 * simtime.Millisecond
	fleetWindow     = 60 * simtime.Millisecond
	fleetRepair     = 40 * simtime.Millisecond
)

type fleetBench struct {
	sc        scenario.Scenario
	schedules [][]scenario.Fault

	// State of the op in flight, judged by check.
	root  *cluster.RootSupervisor
	stats cluster.FleetStats
	wall  time.Duration

	// First-pass records.
	detectP99 []float64
}

func newFleet(seed int64) (bench, error) {
	f := &fleetBench{}
	for _, sc := range scenario.Catalog() {
		if sc.Name == "fleet-10k" {
			f.sc = sc
		}
	}
	if f.sc.Name == "" {
		return nil, errors.New("catalog has no fleet-10k scenario")
	}
	rng := rand.New(rand.NewSource(seedFor(seed, 6)))
	nodes := f.sc.Config.Nodes
	for i := 0; i < fleetOps; i++ {
		used := map[int]bool{}
		var fs []scenario.Fault
		for j := 0; j < fleetFaults; j++ {
			node := 1 + rng.Intn(nodes-1)
			for used[node] {
				node = 1 + rng.Intn(nodes-1)
			}
			used[node] = true
			at := fleetFaultStart + simtime.Duration(j)*fleetWindow/fleetFaults +
				simtime.Duration(rng.Int63n(int64(fleetWindow/fleetFaults)))
			ft := scenario.Fault{At: at, Node: node, Perm: rng.Intn(2) == 0}
			if !ft.Perm {
				ft.Repair = fleetRepair
			}
			fs = append(fs, ft)
		}
		f.schedules = append(f.schedules, fs)
	}
	// Warm the code paths and the allocator with one full run.
	if err := f.run(0, nil); err != nil {
		return nil, err
	}
	if err := f.check(0, nil); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	f.detectP99 = nil
	return f, nil
}

func (f *fleetBench) ops() int          { return len(f.schedules) }
func (f *fleetBench) prepare(int) error { return nil }

func (f *fleetBench) run(i int, tr *tracer) error {
	done := tr.span("build")
	r, err := cluster.NewRootSupervisor(f.sc.Config)
	if err == nil {
		for _, ft := range f.schedules[i%len(f.schedules)] {
			if err = r.FailAt(ft.At, ft.Node, ft.Perm, ft.Repair); err != nil {
				break
			}
		}
	}
	done()
	if err != nil {
		return err
	}
	done = tr.span("Run")
	t0 := time.Now()
	f.stats = r.Run(fleetDuration)
	f.wall = time.Since(t0)
	done()
	f.root = r
	return nil
}

// check audits the run and judges it against the fleet-10k criteria.
func (f *fleetBench) check(i int, tr *tracer) error {
	r, st := f.root, f.stats
	f.root = nil
	done := tr.span("audit")
	vs := chaos.FleetViolations(&chaos.FleetAudit{Events: r.Events, Counters: r.Counters(), ReadObject: r.ReadObject})
	done()
	if i < len(f.schedules) {
		f.detectP99 = append(f.detectP99, st.DetectP99)
	}
	tr.add("fleet.events", float64(st.Events))
	tr.add("fleet.ckpt_acks", float64(st.Checkpoints))
	tr.add("fleet.failovers", float64(st.Failovers))
	tr.add("fleet.timers", float64(st.Timers))
	tr.add("detector.detections", float64(st.Detections))
	tr.add("detector.false_positives", float64(st.FalsePositives))
	if len(vs) > 0 {
		return fmt.Errorf("invariant violated: %v", vs[0])
	}
	return judge(f.sc.Criteria, st, float64(st.Events)/f.wall.Seconds(), r.Counters().Get("fleet.lazy_restores"))
}

// judge applies a scenario's criteria to one run, as scenario.Run does.
// scenario.Run builds, runs and audits in one call; the benchmark needs
// the three apart, to span each and keep the audit out of the op's time.
func judge(c scenario.Criteria, st cluster.FleetStats, eventsPerSec float64, lazy int64) error {
	switch {
	case c.MinEventsPerSec > 0 && eventsPerSec < c.MinEventsPerSec:
		return fmt.Errorf("events/sec %.0f below floor %.0f", eventsPerSec, c.MinEventsPerSec)
	case c.MaxDetectP99Ms > 0 && st.DetectP99 > c.MaxDetectP99Ms:
		return fmt.Errorf("detect p99 %.2f ms above ceiling %.2f ms", st.DetectP99, c.MaxDetectP99Ms)
	case c.MaxFailoverP99Ms > 0 && st.FailoverP99 > c.MaxFailoverP99Ms:
		return fmt.Errorf("failover p99 %.2f ms above ceiling %.2f ms", st.FailoverP99, c.MaxFailoverP99Ms)
	case st.Detections < c.MinDetections:
		return fmt.Errorf("detections %d below floor %d", st.Detections, c.MinDetections)
	case st.Checkpoints < c.MinCheckpoints:
		return fmt.Errorf("checkpoints %d below floor %d", st.Checkpoints, c.MinCheckpoints)
	case st.Migrations < c.MinMigrations:
		return fmt.Errorf("migrations %d below floor %d", st.Migrations, c.MinMigrations)
	case c.MaxTimers > 0 && st.Timers > c.MaxTimers:
		return fmt.Errorf("armed timers %d above bound %d", st.Timers, c.MaxTimers)
	case lazy < c.MinLazyRestores:
		return fmt.Errorf("lazy restores %d below floor %d", lazy, c.MinLazyRestores)
	}
	return nil
}

func (f *fleetBench) finish() error { return nil }

func (f *fleetBench) report(m metrics, tr *tracer, n int) {
	m["fleet.detect_sim_ms_p99"] = quantile(f.detectP99, 0.5)
	if tr == nil {
		return
	}
	for _, name := range []string{"fleet.events", "fleet.ckpt_acks", "fleet.failovers", "fleet.timers",
		"detector.detections", "detector.false_positives"} {
		m[name] = tr.counts[name] / float64(n)
	}
	runMs, _ := layerWall(tr, "Run", n)
	m["fleet.wall_ms_per_sim_ms"] = runMs / fleetDuration.Millis()
}
