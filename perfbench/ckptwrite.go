package main

import (
	"fmt"
	"math/rand"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ckpt-write: one op runs the app for 1-4 iterations (seed-drawn order), collects
// its dirty pages with the kernel write-protection tracker, captures at
// width 2, encodes, and publishes to a 2+1 erasure target over three local
// disks. Deltas form a chain; every rebaseEvery-th epoch is a full image,
// and the old chain is retired once the rebase is durable.
const (
	// ckptWriteMiB is 8x a 2 MiB L2. At 32 MiB and above the run was bound
	// by memory bandwidth, and its wall figures swung with the load of
	// other tenants on a shared host.
	ckptWriteMiB  = 16
	ckptWriteFrac = 0.02
	ckptWriteOps  = 160
	// rebaseEvery keeps the slow ops — each full rebase and the delta
	// after it, which pays the collector for the rebase's garbage — under
	// a tenth of the list, so op_wall_ms_p90 measures regular deltas
	// instead of landing inside that class and swinging with GC timing.
	rebaseEvery = 32
	// warmIters leaves ~90% of the arena resident before timing starts,
	// so full images are the size of the app.
	warmIters = 120
	// runSlice is the simulated time per RunFor while stepping the app to
	// an iteration boundary.
	runSlice = 10 * simtime.Microsecond
)

type ckptWrite struct {
	k       *kernel.Kernel
	p       *proc.Process
	trk     *checkpoint.KernelWPTracker
	members []*storage.Local
	tgt     *storage.Replicated
	iters   []int // op list: app iterations per epoch

	chain []string // live chain, oldest first

	// First-pass records, indexed by op.
	ckptSim    []float64 // simulated capture + publish, ms
	captureSim []float64
	writeSim   []float64
	stored     []float64 // bytes held across members after the op
}

func newCkptWrite(seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seedFor(seed, 1)))
	prog := workload.Sparse{MiB: ckptWriteMiB, WriteFrac: ckptWriteFrac, Seed: uint64(seedFor(seed, 2))}
	k := newKernel("ckpt-write", prog)
	p, err := k.Spawn(prog.Name())
	if err != nil {
		return nil, err
	}
	workload.SetIterations(p, 1<<40)
	if err := stepApp(k, p, warmIters); err != nil {
		return nil, err
	}
	c := &ckptWrite{k: k, p: p}
	c.members, c.tgt, err = erasureTarget("ckpt-write", nil, nil)
	if err != nil {
		return nil, err
	}
	c.trk = checkpoint.NewKernelWPTracker(k, p)
	if err := c.trk.Arm(); err != nil {
		return nil, err
	}
	// A balanced list: every iteration count 1-4 equally often, in a
	// seed-drawn order, so the work in a run does not vary with the seed.
	for i := 0; i < ckptWriteOps; i++ {
		c.iters = append(c.iters, 1+i%4)
	}
	rng.Shuffle(len(c.iters), func(a, b int) { c.iters[a], c.iters[b] = c.iters[b], c.iters[a] })
	return c, nil
}

// newKernel builds one simulated machine with progs registered.
func newKernel(name string, progs ...kernel.Program) *kernel.Kernel {
	reg := kernel.NewRegistry()
	for _, p := range progs {
		reg.MustRegister(p)
	}
	return kernel.New(kernel.DefaultConfig(name), costmodel.Default2005(), reg)
}

// erasureTarget builds a 2+1 erasure set over three local disks, the
// second and third reached over the wire. alive, when non-nil, gates the
// disks by index; ctr, when non-nil, receives the repl.* counts.
func erasureTarget(name string, alive func(i int) bool, ctr *trace.Counters) ([]*storage.Local, *storage.Replicated, error) {
	cm := costmodel.Default2005()
	var members []*storage.Local
	var reps []storage.Replica
	for i := 0; i < 3; i++ {
		i := i
		var up func() bool
		if alive != nil {
			up = func() bool { return alive(i) }
		}
		d := storage.NewLocal(fmt.Sprintf("%s-n%d", name, i), cm, up)
		members = append(members, d)
		t := storage.Target(d)
		if i != 0 {
			t = storage.OverWire(d, cm)
		}
		reps = append(reps, storage.Replica{T: t, Role: storage.RoleShard})
	}
	r, err := storage.NewReplicated(name, reps, storage.ReplicatedConfig{DataShards: 2, ParityShards: 1, Counters: ctr})
	return members, r, err
}

// stepApp runs the app p on k for iters iterations and stops it.
func stepApp(k *kernel.Kernel, p *proc.Process, iters int) error {
	target := p.Regs().PC + uint64(iters)
	k.Wake(p)
	for p.Regs().PC < target && p.State != proc.StateZombie {
		k.RunFor(runSlice)
	}
	k.Stop(p)
	if p.State == proc.StateZombie {
		return fmt.Errorf("app exited at iteration %d", p.Regs().PC)
	}
	return nil
}

func (c *ckptWrite) ops() int { return len(c.iters) }

func (c *ckptWrite) prepare(int) error { return nil }

func (c *ckptWrite) run(i int, tr *tracer) error {
	first := i < len(c.iters)
	full := i%rebaseEvery == 0

	w0, f0 := c.p.AS.BytesWritten(), c.p.AS.FaultCount()
	done := tr.span("RunFor")
	err := stepApp(c.k, c.p, c.iters[i%len(c.iters)])
	done()
	if err != nil {
		return err
	}
	written := float64(c.p.AS.BytesWritten() - w0)
	tr.add("workload.bytes_written", written)
	tr.add("mem.faults", float64(c.p.AS.FaultCount()-f0))

	simBefore := c.k.Ledger.Total
	protected := c.trk.Stats().ProtectedPages
	done = tr.span("Collect")
	ranges, err := c.trk.Collect()
	done()
	if err != nil {
		return err
	}
	tr.add("tracker.protected_pages", float64(c.trk.Stats().ProtectedPages-protected))
	dirty := 0
	for _, r := range ranges {
		dirty += r.Length
	}
	tr.add("tracker.dirty_bytes", float64(dirty))

	req := checkpoint.Request{
		Acc: &checkpoint.KernelAccessor{K: c.k, P: c.p}, Mechanism: "perfbench", Hostname: "ckpt-write",
		Seq: uint64(i + 1), Now: c.k.Now(), Parallelism: captureWidth,
	}
	if !full {
		req.Trk = collected(ranges)
		req.Parent = c.chain[len(c.chain)-1]
	}
	done = tr.span("Capture")
	img, st, err := checkpoint.Capture(req)
	done()
	if err != nil {
		return err
	}
	captureSim := c.k.Ledger.Total - simBefore
	tr.add("capture.bytes", float64(st.PayloadBytes))
	tr.add("tracker.captured_bytes", float64(st.PayloadBytes))
	tr.add("tracker.app_written", written)

	done = tr.span("EncodeParallelBytes")
	blob, err := img.EncodeParallelBytes(captureWidth)
	done()
	if err != nil {
		return err
	}
	tr.add("encode.bytes", float64(len(blob)))

	led := costmodel.NewLedger()
	led.Charge(checkpoint.EncodeCost(len(blob), captureWidth), "encode")
	done = tr.span("storage.Write")
	err = storage.Write(c.tgt, img.ObjectName(), blob, storage.WriteOptions{
		Atomic: true, Parent: req.Parent, Env: storage.LedgerEnv(led),
	})
	done()
	if err != nil {
		return err
	}
	writeSim := led.Total - led.ByCategory["encode"]
	if full && len(c.chain) > 0 {
		done = tr.span("RetireChain")
		_, pending, err := storage.RetireChain(c.tgt, c.chain)
		done()
		if err != nil || len(pending) > 0 {
			return fmt.Errorf("retire chain: %d pending: %v", len(pending), err)
		}
		c.chain = nil
	}
	c.chain = append(c.chain, img.ObjectName())

	if first {
		c.ckptSim = append(c.ckptSim, (captureSim + led.Total).Millis())
		c.captureSim = append(c.captureSim, captureSim.Millis())
		c.writeSim = append(c.writeSim, writeSim.Millis())
	}
	return nil
}

// check records the bytes the target holds after the op's GC.
func (c *ckptWrite) check(i int, tr *tracer) error {
	if i >= len(c.iters) && tr == nil {
		return nil
	}
	held := 0
	for _, m := range c.members {
		for _, obj := range m.List() {
			n, err := m.ObjectSize(obj)
			if err != nil {
				return err
			}
			held += n
		}
	}
	if i < len(c.iters) {
		c.stored = append(c.stored, float64(held))
	}
	tr.add("storage.stored_bytes", float64(held))
	return nil
}

// finish reloads the live chain, restores it on a fresh machine, and
// compares the memory with the app's at its last capture (the app has not
// run since).
func (c *ckptWrite) finish() error {
	chain, err := checkpoint.LoadChainManifest(c.tgt, nil, c.chain)
	if err != nil {
		return err
	}
	prog, err := c.k.Registry.Lookup(c.p.Exe)
	if err != nil {
		return err
	}
	p, err := checkpoint.Restore(newKernel("ckpt-write-check", prog), chain, checkpoint.RestoreOptions{Parallelism: replayWidth})
	if err != nil {
		return err
	}
	if p.AS.Checksum() != c.p.AS.Checksum() {
		return errMismatch
	}
	return nil
}

func (c *ckptWrite) report(m metrics, tr *tracer, n int) {
	m["ckpt_sim_ms_p50"] = quantile(c.ckptSim, 0.5)
	m["ckpt_sim_ms_p90"] = quantile(c.ckptSim, 0.9)
	m["stored_bytes_ratio"] = mean(c.stored) / float64(ckptWriteMiB*mib)
	if tr == nil {
		return
	}
	per := func(name string) float64 { return tr.counts[name] / float64(n) }
	m["capture.sim_ms"] = mean(c.captureSim)
	m["storage.write_sim_ms"] = mean(c.writeSim)
	m["workload.run_wall_ms"], _ = layerWall(tr, "RunFor", n)
	m["workload.bytes_written"] = per("workload.bytes_written")
	m["mem.faults"] = per("mem.faults")
	m["tracker.collect_wall_ms"], _ = layerWall(tr, "Collect", n)
	m["tracker.dirty_bytes"] = per("tracker.dirty_bytes")
	m["tracker.protected_pages"] = per("tracker.protected_pages")
	m["tracker.amplification"] = ratio(tr.counts["tracker.captured_bytes"], tr.counts["tracker.app_written"])
	m["capture.wall_ms"], m["capture.alloc_mb"] = layerWall(tr, "Capture", n)
	m["capture.mb_per_s"] = throughput(tr, "Capture", tr.counts["capture.bytes"])
	m["encode.wall_ms"], m["encode.alloc_mb"] = layerWall(tr, "EncodeParallelBytes", n)
	m["encode.mb_per_s"] = throughput(tr, "EncodeParallelBytes", tr.counts["encode.bytes"])
	m["storage.write_wall_ms"], _ = layerWall(tr, "storage.Write", n)
	m["storage.stored_bytes"] = per("storage.stored_bytes")
}

// collected replays ranges the benchmark already collected, so Collect and
// Capture are timed as separate layer calls.
type collected []checkpoint.Range

func (collected) Name() string                           { return "collected" }
func (collected) Granularity() int                       { return 4096 }
func (collected) Arm() error                             { return nil }
func (r collected) Collect() ([]checkpoint.Range, error) { return r, nil }
func (collected) Stats() checkpoint.TrackerStats         { return checkpoint.TrackerStats{} }
func (collected) Close()                                 {}
