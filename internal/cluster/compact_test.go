package cluster

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/detector"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/syslevel"
	"repro/internal/workload"
)

// The compaction tentpole end to end: with incremental shipping on and
// rebase effectively off, server-side folds are the only thing keeping
// the chain short. The job must survive a mid-run failover (restoring
// from a previously compacted chain), the live chain must respect the
// CompactAfter bound, and every folded delta must really be gone.
func TestAutonomicCompactionBoundsChain(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 31}
	want := referenceFingerprint(t, prog, 60)

	c := newCluster(t, 4, prog)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)

	// Fail the job's node after several compaction rounds have run, so
	// the recovery chain walk starts from a folded full image.
	failed := false
	c.OnStep(func() {
		if !failed && c.Now() >= simtime.Time(8*simtime.Millisecond) {
			failed = true
			c.Fail(0)
		}
	})

	sup := MustNewSupervisor(SupervisorConfig{
		C:            c,
		MkMech:       func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:         prog,
		Iterations:   60,
		Policy:       policy.Fixed(simtime.Millisecond),
		Detector:     mon,
		ControlNode:  3,
		Incremental:  true,
		RebaseEvery:  100, // never rebases within this job: folds own the bound
		CompactAfter: 2,
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !sup.Completed {
		t.Fatalf("job did not complete (ckpts=%d restarts=%d counters:\n%s)",
			sup.Checkpoints, sup.Restarts, c.Counters)
	}
	if sup.Fingerprint != want {
		t.Fatalf("fingerprint %#x want %#x", sup.Fingerprint, want)
	}
	if sup.Restarts == 0 {
		t.Fatal("the node failure caused no failover")
	}
	if n := c.Counters.Get("compact.folds"); n == 0 {
		t.Fatalf("no compaction ran (counters:\n%s)", c.Counters)
	}
	if n := c.Counters.Get("compact.folded_deltas"); n < 3 {
		t.Fatalf("compact.folded_deltas = %d, want ≥3 (each fold folds >CompactAfter deltas)", n)
	}
	if n := c.Counters.Get("compact.failed"); n != 0 {
		t.Fatalf("compact.failed = %d, want 0 on a fault-free server", n)
	}
	for _, k := range []string{"ckpt.torn", "ckpt.lost", "ckpt.chain_fallback", "fence.double_commits"} {
		if n := c.Counters.Get(k); n != 0 {
			t.Fatalf("%s = %d, want 0", k, n)
		}
	}

	// The bound compaction pays for: the final live chain replays at most
	// CompactAfter deltas, and it still verifies end to end.
	rem := c.Node(3).Remote()
	chain, err := checkpoint.LoadChain(rem, nil, sup.LastLeaf())
	if err != nil {
		t.Fatalf("live chain from %s is not replayable: %v", sup.LastLeaf(), err)
	}
	if deltas := len(chain) - 1; deltas > 2 {
		t.Fatalf("final chain replays %d deltas despite CompactAfter=2", deltas)
	}
	if chain[0].Mode != checkpoint.ModeFull {
		t.Fatalf("chain root mode = %v, want full", chain[0].Mode)
	}

	// Every fold emitted a compact event and retired its inputs for real.
	compacts := 0
	for _, ev := range sup.Events {
		switch ev.Kind {
		case EvCompact:
			compacts++
		case EvRetire:
			if _, err := rem.ObjectSize(ev.Object); err == nil {
				t.Fatalf("retired object %s still on the server", ev.Object)
			}
		}
	}
	if compacts == 0 {
		t.Fatal("compact.folds counted but no EvCompact event was emitted")
	}

	// Restore telemetry rode along with the failover.
	if n := c.Counters.Get("restore.count"); int(n) != sup.Restarts {
		t.Fatalf("restore.count = %d, want %d (one per restart)", n, sup.Restarts)
	}
	lat := sup.Metrics().Hist("restore.latency").Snapshot()
	if lat.N != sup.Restarts {
		t.Fatalf("restore.latency has %d observations, want %d", lat.N, sup.Restarts)
	}
}

// A fold that lands mid-run must never strand the recovery pointer:
// restore immediately after a compaction replays the folded full image
// and reproduces the exact reference state.
func TestRestoreRightAfterCompaction(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 33}
	want := referenceFingerprint(t, prog, 60)

	c := newCluster(t, 4, prog)
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)

	// Kill the job's node on the very next step after the first fold —
	// the tightest window between GC of the old deltas and the restore
	// that must now come from the folded image.
	jobNode := 0
	folded := false
	sup := MustNewSupervisor(SupervisorConfig{
		C:            c,
		MkMech:       func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:         prog,
		Iterations:   60,
		Policy:       policy.Fixed(simtime.Millisecond),
		Detector:     mon,
		ControlNode:  3,
		Incremental:  true,
		RebaseEvery:  100,
		CompactAfter: 2,
		OnEvent: func(ev Event) {
			if ev.Kind == EvAdmit {
				jobNode = ev.Node
			}
			if ev.Kind == EvCompact {
				folded = true
			}
		},
	})
	struck := false
	c.OnStep(func() {
		if folded && !struck {
			struck = true
			c.Fail(jobNode)
		}
	})

	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !struck {
		t.Fatal("no compaction happened — scenario did not run")
	}
	if !sup.Completed {
		t.Fatalf("job did not complete (ckpts=%d restarts=%d counters:\n%s)",
			sup.Checkpoints, sup.Restarts, c.Counters)
	}
	if sup.Fingerprint != want {
		t.Fatalf("fingerprint %#x want %#x: restore from folded image lost state", sup.Fingerprint, want)
	}
	if n := c.Counters.Get("ckpt.chain_fallback"); n != 0 {
		t.Fatalf("ckpt.chain_fallback = %d: the fold broke the primary chain walk", n)
	}
	if sup.FromScratch != 0 {
		t.Fatalf("recovery went from scratch %d times right after a fold", sup.FromScratch)
	}
}
