package main

import (
	"fmt"
	"math/rand"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// failover-read: set-up builds failoverChains chains (a full image plus
// failoverDeltas deltas of a 16 MiB app, 2% dirty per delta as in E16),
// each on its own 2+1 erasure set, and records the app's checksum at every
// capture. One op restores a prefix of one chain (0-16 deltas) onto a
// spare machine, eagerly (LoadChainManifest + Restore) or lazily (leaf
// read + LazyRestore, then DrainAll); a third of ops run with one erasure
// member down, so reads take the degraded path. The list holds each
// combination once (102 ops) in a seed-drawn order.
const (
	failoverMiB    = 16
	failoverFrac   = 0.02
	failoverChains = 4
	failoverDeltas = 16
	failoverWarm   = 100
)

type chainSet struct {
	tgt     *storage.Replicated
	objects []string // full image first
	sizes   []int    // encoded object sizes
	sums    []uint64 // app checksum at each capture
	down    int      // index of the member that is down, -1 for none
}

type restoreOp struct {
	chain, depth int // depth = deltas restored on top of the full image
	lazy         bool
	down         int
}

type failoverRead struct {
	prog   workload.Sparse
	chains []*chainSet
	list   []restoreOp
	ctr    *trace.Counters // repl.* counts of every chain set

	spare    *kernel.Kernel // machine the next op restores onto
	restored *proc.Process

	// First-pass records.
	eagerSim, ttfiSim []float64
}

func newFailoverRead(seed int64) (bench, error) {
	f := &failoverRead{
		prog: failoverProg(seed),
		ctr:  trace.NewCounters(),
	}
	for c := 0; c < failoverChains; c++ {
		ch, err := f.buildChain(c)
		if err != nil {
			return nil, fmt.Errorf("chain %d: %w", c, err)
		}
		f.chains = append(f.chains, ch)
	}
	// A balanced list: every (depth, eager/lazy, healthy/healthy/degraded)
	// combination once, in a seed-drawn order, with the chain and the
	// failed member seed-drawn.
	rng := rand.New(rand.NewSource(seedFor(seed, 4)))
	for depth := 0; depth <= failoverDeltas; depth++ {
		for _, lazy := range []bool{false, true} {
			for slot := 0; slot < 3; slot++ {
				op := restoreOp{chain: rng.Intn(failoverChains), depth: depth, lazy: lazy, down: -1}
				if slot == 2 {
					op.down = rng.Intn(3)
				}
				f.list = append(f.list, op)
			}
		}
	}
	rng.Shuffle(len(f.list), func(a, b int) { f.list[a], f.list[b] = f.list[b], f.list[a] })
	return f, nil
}

// buildChain warms one app and captures its full image plus deltas, one
// app iteration apart.
func (f *failoverRead) buildChain(c int) (*chainSet, error) {
	ch := &chainSet{down: -1}
	var err error
	_, ch.tgt, err = erasureTarget(fmt.Sprintf("failover-%d", c), func(i int) bool { return ch.down != i }, f.ctr)
	if err != nil {
		return nil, err
	}
	k := newKernel("failover-src", f.prog)
	p, err := k.Spawn(f.prog.Name())
	if err != nil {
		return nil, err
	}
	workload.SetIterations(p, 1<<40)
	// Each chain starts from a different iteration of the same app.
	if err := stepApp(k, p, failoverWarm+c*7); err != nil {
		return nil, err
	}
	trk := checkpoint.NewKernelWPTracker(k, p)
	if err := trk.Arm(); err != nil {
		return nil, err
	}
	defer trk.Close()
	for seq := 1; seq <= failoverDeltas+1; seq++ {
		if seq > 1 {
			if err := stepApp(k, p, 1); err != nil {
				return nil, err
			}
		}
		req := checkpoint.Request{
			Acc: &checkpoint.KernelAccessor{K: k, P: p}, Target: ch.tgt, Env: storage.NopEnv(),
			Mechanism: "perfbench", Hostname: "failover-read", Seq: uint64(seq), Now: k.Now(),
			Parallelism: captureWidth,
		}
		if seq == 1 {
			// The full image covers every resident page; the tracker's
			// first collection only starts its epoch.
			if _, err := trk.Collect(); err != nil {
				return nil, err
			}
		} else {
			req.Trk = trk
			req.Parent = ch.objects[len(ch.objects)-1]
		}
		img, st, err := checkpoint.Capture(req)
		if err != nil {
			return nil, err
		}
		ch.objects = append(ch.objects, img.ObjectName())
		ch.sizes = append(ch.sizes, st.EncodedBytes)
		ch.sums = append(ch.sums, p.AS.Checksum())
	}
	return ch, nil
}

func (f *failoverRead) ops() int { return len(f.list) }

func (f *failoverRead) prepare(i int) error {
	op := f.list[i%len(f.list)]
	f.chains[op.chain].down = op.down
	f.spare = newKernel("failover-spare", f.prog)
	return nil
}

func (f *failoverRead) run(i int, tr *tracer) error {
	op := f.list[i%len(f.list)]
	ch := f.chains[op.chain]
	objects := ch.objects[:op.depth+1]
	led := costmodel.NewLedger()
	env := storage.LedgerEnv(led)
	degraded0 := f.ctr.Get("repl.read_reconstruct")
	defer func() { tr.add("storage.degraded_reads", float64(f.ctr.Get("repl.read_reconstruct")-degraded0)) }()
	for _, n := range ch.sizes[:op.depth+1] {
		tr.add("chain.bytes", float64(n))
	}
	tr.add("chain.objects", float64(len(objects)))

	if !op.lazy {
		done := tr.span("LoadChainManifest")
		chain, err := checkpoint.LoadChainManifest(ch.tgt, env, objects)
		done()
		if err != nil {
			return err
		}
		readSim := led.Total
		done = tr.span("Restore")
		p, err := checkpoint.Restore(f.spare, chain, checkpoint.RestoreOptions{Parallelism: replayWidth, Env: env})
		done()
		if err != nil {
			return err
		}
		f.restored = p
		if i < len(f.list) {
			f.eagerSim = append(f.eagerSim, led.Total.Millis())
		}
		if tr != nil {
			tr.add("chain.read_sim_ms", readSim.Millis())
			tr.add("replay.sim_ms", (led.Total - readSim).Millis())
			tr.add("replay.restores", 1)
			if n, err := checkpoint.ReplayBytes(chain); err == nil {
				tr.add("replay.bytes", float64(n))
			}
		}
		return nil
	}

	return f.runLazy(i, op, ch, objects, env, led, tr)
}

// runLazy reads and decodes the leaf, restores it lazily, and drains the
// rest of the chain.
func (f *failoverRead) runLazy(i int, op restoreOp, ch *chainSet, objects []string, env *storage.Env, led *costmodel.Ledger, tr *tracer) error {
	done := tr.span("ReadObject")
	blob, err := ch.tgt.ReadObject(objects[op.depth], env)
	var leaf *checkpoint.Image
	if err == nil {
		leaf, err = checkpoint.Decode(blob)
	}
	done()
	if err != nil {
		return err
	}
	done = tr.span("LazyRestore")
	p, sess, err := checkpoint.LazyRestore(f.spare, leaf, checkpoint.LazyOptions{
		RestoreOptions: checkpoint.RestoreOptions{Parallelism: replayWidth, Env: env},
		Source:         ch.tgt,
		Ancestors:      objects[:op.depth],
		ReadEnv:        storage.NopEnv(),
	})
	done()
	if err != nil {
		return err
	}
	ttfi := led.Total
	done = tr.span("DrainAll")
	err = sess.DrainAll()
	done()
	st := sess.Stats()
	sess.Close()
	if err != nil {
		return err
	}
	f.restored = p
	if i < len(f.list) {
		f.ttfiSim = append(f.ttfiSim, ttfi.Millis())
	}
	tr.add("lazy.hot_bytes", float64(st.HotBytes))
	tr.add("lazy.faults_served", float64(st.FaultsServed))
	tr.add("lazy.prefetched", float64(st.Prefetched))
	tr.add("lazy.restores", 1)
	return nil
}

// check compares the restored memory with the source app's at the
// capture the restored prefix ends at.
func (f *failoverRead) check(i int, tr *tracer) error {
	op := f.list[i%len(f.list)]
	f.chains[op.chain].down = -1
	p := f.restored
	f.restored, f.spare = nil, nil
	tr.add("mem.faults", float64(p.AS.FaultCount()))
	if p.AS.Checksum() != f.chains[op.chain].sums[op.depth] {
		return errMismatch
	}
	return nil
}

func (f *failoverRead) finish() error { return nil }

func (f *failoverRead) report(m metrics, tr *tracer, n int) {
	m["restore_sim_ms_p50"] = quantile(f.eagerSim, 0.5)
	m["restore_sim_ms_p90"] = quantile(f.eagerSim, 0.9)
	m["ttfi_sim_ms_p50"] = quantile(f.ttfiSim, 0.5)
	if tr == nil {
		return
	}
	per := func(name string) float64 { return tr.counts[name] / float64(n) }
	restores := tr.counts["replay.restores"]
	lazies := tr.counts["lazy.restores"]
	m["chain.read_wall_ms"], _ = layerWall(tr, "LoadChainManifest", n)
	m["chain.read_sim_ms"] = ratio(tr.counts["chain.read_sim_ms"], restores)
	m["chain.objects"] = per("chain.objects")
	m["chain.bytes"] = per("chain.bytes")
	m["storage.degraded_reads"] = per("storage.degraded_reads")
	m["mem.faults"] = per("mem.faults")
	m["replay.wall_ms"], m["replay.alloc_mb"] = layerWall(tr, "Restore", n)
	m["replay.mb_per_s"] = throughput(tr, "Restore", tr.counts["replay.bytes"])
	m["replay.bytes"] = ratio(tr.counts["replay.bytes"], restores)
	m["replay.sim_ms"] = ratio(tr.counts["replay.sim_ms"], restores)
	m["lazy.hot_wall_ms"], _ = layerWall(tr, "LazyRestore", n)
	m["lazy.drain_wall_ms"], _ = layerWall(tr, "DrainAll", n)
	m["lazy.hot_bytes"] = ratio(tr.counts["lazy.hot_bytes"], lazies)
	m["lazy.faults_served"] = ratio(tr.counts["lazy.faults_served"], lazies)
	m["lazy.prefetched"] = ratio(tr.counts["lazy.prefetched"], lazies)
	m["lazy.demand_ratio"] = ratio(tr.counts["lazy.faults_served"], tr.counts["lazy.faults_served"]+tr.counts["lazy.prefetched"])
	m["lazy.ttfi_vs_eager"] = ratio(m["ttfi_sim_ms_p50"], m["restore_sim_ms_p50"])
}

func failoverProg(seed int64) workload.Sparse {
	return workload.Sparse{MiB: failoverMiB, WriteFrac: failoverFrac, Seed: uint64(seedFor(seed, 3))}
}
