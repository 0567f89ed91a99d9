package chaos

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/detector"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/syslevel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Result is everything one scenario run produced.
type Result struct {
	Spec        *Spec
	Completed   bool
	Aborted     string // terminal supervisor error, "" when none
	Fingerprint uint64
	Want        uint64 // reference fingerprint
	Makespan    simtime.Duration
	Checkpoints int
	Restarts    int
	FromScratch int
	Violations  []Violation

	// WorkLost summarizes the supervisor's policy.work_lost histogram:
	// one observation per failure, measuring the progress gap the
	// failure destroyed. The policy checkers and crbench compare its
	// total (Mean·N) across cadence strategies.
	WorkLost trace.HistSnapshot

	// EventLog is the rendered orchestration + suspicion event stream;
	// Counters the sorted counter snapshot. Digest hashes both plus the
	// end state — two runs of the same spec must produce equal digests.
	EventLog string
	Counters string
	Digest   uint64
}

// WorkLostTotalMS is the total simulated milliseconds of work lost to
// failures across the run.
func (r *Result) WorkLostTotalMS() float64 { return r.WorkLost.Mean * float64(r.WorkLost.N) }

// Violated reports whether the named invariant was breached.
func (r *Result) Violated(invariant string) bool {
	for _, v := range r.Violations {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// Summary is a one-line human rendering of the outcome.
func (r *Result) Summary() string {
	s := fmt.Sprintf("seed=%d nodes=%d det=%s completed=%v ckpts=%d restarts=%d",
		r.Spec.Seed, r.Spec.Nodes, r.Spec.Detector, r.Completed, r.Checkpoints, r.Restarts)
	if len(r.Violations) > 0 {
		s += fmt.Sprintf(" VIOLATIONS=%d (%s)", len(r.Violations), r.Violations[0].Invariant)
	}
	return s
}

// maxRelaunches bounds operator relaunches of an aborted supervisor
// within one scenario (an abort is "no unsuspected spare node" — the
// controller gave up; the harness restarts it once conditions change).
const maxRelaunches = 16

// Run executes one scenario under the default invariant catalog.
func Run(sp *Spec) *Result { return RunChecked(sp, DefaultCheckers()) }

// RunChecked executes one scenario with an explicit checker registry.
func RunChecked(sp *Spec, checkers []Checker) *Result {
	if err := sp.validate(); err != nil {
		return &Result{Spec: sp, Violations: []Violation{{Invariant: "spec", Detail: err.Error()}}}
	}
	prog := workload.Sparse{MiB: sp.MiB, WriteFrac: sp.WriteFrac, Seed: uint64(sp.WorkSeed)}
	want := referenceFingerprint(prog, sp.Iterations)

	reg := kernel.NewRegistry()
	reg.MustRegister(prog)
	c := cluster.New(cluster.Config{Nodes: sp.Nodes, Seed: sp.Seed, KernelCfg: kernel.DefaultConfig("")},
		costmodel.Default2005(), reg)
	np := c.EnableNetFaults(cluster.NetFaultConfig{
		Loss: sp.Loss, Duplicate: sp.Dup, DelayJitter: sp.Jitter,
	})
	if sp.Storage != (StorageSpec{}) {
		c.EnableStorageFaults(cluster.StorageFaultConfig{
			WriteFault:   sp.Storage.WriteFault,
			OutageFrac:   sp.Storage.OutageFrac,
			SilentTear:   sp.Storage.SilentTear,
			PublishFault: sp.Storage.PublishFault,
		})
	}
	installFaultSchedule(c, np, sp)

	det, err := buildDetector(sp.Detector, sp.HBPeriod)
	if err != nil {
		return &Result{Spec: sp, Violations: []Violation{{Invariant: "spec", Detail: err.Error()}}}
	}
	// Sharded seeds route detection through the digest path: per-shard
	// aggregators fold worker heartbeats and the observer ingests one
	// digest per shard per period. Both monitors satisfy the supervisor's
	// FailureDetector contract and expose the suspicion event log.
	var mon interface {
		cluster.FailureDetector
		Events() []detector.Event
	}
	if sp.Shards >= 2 {
		mon = detector.NewShardMonitor(c, det,
			detector.ShardConfig{Shards: sp.Shards, Period: sp.HBPeriod, Observer: sp.observer()}, c.Counters)
	} else {
		mon = detector.NewMonitor(c, det, detector.Config{Period: sp.HBPeriod, Observer: sp.observer()}, c.Counters)
	}

	sup, err := cluster.NewSupervisor(cluster.SupervisorConfig{
		C:            c,
		MkMech:       func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:         prog,
		Iterations:   sp.Iterations,
		Policy:       sp.policySpec(),
		Incremental:  sp.Incremental,
		RebaseEvery:  sp.RebaseEvery,
		CompactAfter: sp.CompactAfter,
		LazyRestore:  sp.LazyRestore,
		Detector:     mon,
		ControlNode:  sp.observer(),
		NoFencing:    sp.NoFencing,
		Pipeline:     sp.pipelineConfig(),
		Replication:  sp.replicationConfig(),
		OnEvent: func(ev cluster.Event) {
			for _, ck := range checkers {
				ck.Event(ev)
			}
		},
	})
	if err != nil {
		// A generated scenario that the supervisor itself rejects is a
		// spec-level violation, not a crash.
		return &Result{Spec: sp, Violations: []Violation{{Invariant: "spec", Detail: err.Error()}}}
	}

	// Drive the supervisor, relaunching after terminal aborts (it gives
	// up when every spare is suspected at a failover instant) until the
	// job completes or the scenario budget runs out.
	deadline := simtime.Time(sp.Budget)
	var runErr error
	for i := 0; i <= maxRelaunches && c.Now() < deadline; i++ {
		runErr = sup.Run(deadline.Sub(c.Now()))
		if sup.Completed || runErr == nil {
			break
		}
		if c.Now() < deadline {
			c.RunFor(2 * simtime.Millisecond) // relaunch delay
		}
	}

	// End-of-run audit. The checkpoint server's auto-heal only ticks
	// with the cluster clock; close any outage left dangling at the cut
	// so durability reads measure what was committed, not the outage.
	// On replicated seeds the server alone is the wrong witness — an
	// acked image may legally live only on node-local disks (always, in
	// erasure mode) — so durability reads go through a reader spanning
	// every disk in the cluster plus the server.
	c.Server.Recover()
	auditTgt := storage.Target(storage.NewRemote("chaos-audit", c.Server))
	if sp.Replication != "" {
		auditTgt = newAuditReader(c, sp.Replication == "erasure", nil)
	}
	audit := &Audit{
		Spec: sp, Sup: sup, C: c, Want: want,
		ReadObject: func(name string) ([]byte, error) {
			return auditTgt.ReadObject(name, nil)
		},
		Target:  auditTgt,
		Aborted: runErr,
	}
	res := &Result{
		Spec:        sp,
		Completed:   sup.Completed,
		Fingerprint: sup.Fingerprint,
		Want:        want,
		Makespan:    sup.Makespan,
		Checkpoints: sup.Checkpoints,
		Restarts:    sup.Restarts,
		FromScratch: sup.FromScratch,
	}
	if runErr != nil {
		res.Aborted = runErr.Error()
	}
	res.WorkLost = sup.Metrics().Hist("policy.work_lost").Snapshot()
	for _, ck := range checkers {
		res.Violations = append(res.Violations, ck.Finish(audit)...)
	}

	res.EventLog = cluster.FormatEvents(sup.Events) + formatSuspicions(mon.Events())
	res.Counters = c.Counters.String()
	res.Digest = digest(res)
	return res
}

// referenceFingerprint runs the workload undisturbed on a pristine
// single-node cluster — the ground truth the state-digest invariant
// compares against.
func referenceFingerprint(prog workload.Sparse, iters uint64) uint64 {
	reg := kernel.NewRegistry()
	reg.MustRegister(prog)
	c := cluster.New(cluster.Config{Nodes: 1, Seed: 0, KernelCfg: kernel.DefaultConfig("")},
		costmodel.Default2005(), reg)
	p, err := c.Node(0).K.Spawn(prog.Name())
	if err != nil {
		return 0
	}
	workload.SetIterations(p, iters)
	if !c.RunUntil(func() bool { return p.State == proc.StateZombie }, simtime.Minute) {
		return 0
	}
	return workload.Fingerprint(p)
}

// installFaultSchedule arms the spec's discrete fault events on the
// cluster step: node failures (with reboots for transient ones) and
// named partitions that open and heal at fixed instants.
func installFaultSchedule(c *cluster.Cluster, np *cluster.NetPolicy, sp *Spec) {
	fails := append([]FailEvent(nil), sp.Failures...)
	sort.SliceStable(fails, func(i, j int) bool { return fails[i].At < fails[j].At })
	type rebootAt struct {
		at   simtime.Time
		node int
	}
	var reboots []rebootAt
	type partState struct {
		ev     PartitionEvent
		name   string
		opened bool
		healed bool
	}
	parts := make([]*partState, len(sp.Partitions))
	for i, p := range sp.Partitions {
		parts[i] = &partState{ev: p, name: fmt.Sprintf("chaos-cut-%d", i)}
	}
	c.OnStep(func() {
		now := c.Now()
		for len(fails) > 0 && now >= simtime.Time(fails[0].At) {
			f := fails[0]
			fails = fails[1:]
			wasAlive := c.Node(f.Node).Alive()
			kind := cluster.Transient
			if f.Permanent {
				kind = cluster.Permanent
			}
			c.FailKind(f.Node, kind)
			if wasAlive && !f.Permanent {
				reboots = append(reboots, rebootAt{at: now.Add(f.Repair), node: f.Node})
			}
		}
		kept := reboots[:0]
		for _, r := range reboots {
			if now >= r.at {
				c.Reboot(r.node)
			} else {
				kept = append(kept, r)
			}
		}
		reboots = kept
		for _, p := range parts {
			if !p.opened && now >= simtime.Time(p.ev.At) {
				p.opened = true
				np.Partition(p.name, p.ev.Side...)
			}
			if p.opened && !p.healed && now >= simtime.Time(p.ev.Heal) {
				p.healed = true
				np.Heal(p.name)
			}
		}
	})
}

// buildDetector instantiates a detector by its spec name.
func buildDetector(name string, hb simtime.Duration) (detector.Detector, error) {
	switch name {
	case "timeout-1ms":
		return detector.NewTimeout(simtime.Millisecond), nil
	case "timeout-2ms":
		return detector.NewTimeout(2 * simtime.Millisecond), nil
	case "timeout-3ms":
		return detector.NewTimeout(3 * simtime.Millisecond), nil
	case "phi-4":
		return detector.NewPhiAccrual(4, 64, hb/2), nil
	case "phi-8":
		return detector.NewPhiAccrual(8, 64, hb/2), nil
	case "phi-12":
		return detector.NewPhiAccrual(12, 64, hb/2), nil
	}
	return nil, fmt.Errorf("chaos: unknown detector %q", name)
}

// formatSuspicions renders the monitor's suspicion transitions in a
// fixed format for the event log and digest.
func formatSuspicions(evs []detector.Event) string {
	s := ""
	for _, e := range evs {
		verdict := "cleared"
		if e.Suspected {
			verdict = "suspected"
			if e.FalsePositive {
				verdict = "suspected(false)"
			}
		}
		s += fmt.Sprintf("%dns det node=%d %s\n", int64(e.At), e.Node, verdict)
	}
	return s
}

// digest hashes the observable outcome of a run; equal specs must yield
// equal digests or the simulation has a nondeterminism bug.
func digest(r *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "completed=%v fp=%#x makespan=%d ckpts=%d restarts=%d scratch=%d aborted=%q\n",
		r.Completed, r.Fingerprint, int64(r.Makespan), r.Checkpoints, r.Restarts, r.FromScratch, r.Aborted)
	h.Write([]byte(r.EventLog))
	h.Write([]byte(r.Counters))
	for _, v := range r.Violations {
		h.Write([]byte(v.String()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
