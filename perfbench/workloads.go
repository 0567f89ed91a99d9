package main

import "fmt"

// Workloads and the layers they measure.
//
// The load is a closed loop: one client in one process issues the next op
// only after the previous one returns. GOMAXPROCS and every capture,
// encode and replay width are at most 2 (captureWidth, replayWidth), and
// those widths are constants — never checkpoint.DefaultParallelism — so
// the simulated numbers do not depend on the host. Every op list is drawn
// from --seed; a run always completes the whole list once, then cycles it
// until --seconds have been measured. Simulated metrics come from the
// first pass only, so the same seed gives the same simulated numbers.
//
// Why each workload exists:
//
//   - ckpt-write: the write path on an image far larger than L2 (a 16 MiB
//     Sparse app). Capture, CRC64 encode and 2+1 erasure writes carry the
//     load; the restore path stays idle.
//   - failover-read: the same storage and codec layers run the other way
//     (chain read, replay, lazy restore, degraded erasure reads). A gain
//     on the write side that costs reads shows up here. The app never
//     runs inside the timed region.
//   - chaos-mix: the mixed end-to-end path of the chaos suite — the real
//     autonomic Supervisor over the generator's full fault and feature
//     palette, on small L2-resident images. App stepping dominates.
//   - fleet-10k: the only workload for the fleet control plane (detector
//     digests, shard ticks), and the bypass workload for every change to
//     the checkpoint data path: its checkpoints are 96-byte blobs.
//
// Layer -> the figure it should move (workload that exercises it; workload
// where the prediction is no change). The simulated figures are per-layer
// metrics of the traced run; ops_per_s and op_wall_ms_* are end-to-end.
//
//	layer                 moves                               exercised by              bypassed by
//	workload (+kernel)    ops_per_s, op_wall_ms_*              chaos-mix, ckpt-write     failover-read, fleet-10k
//	mem                   ops_per_s                            ckpt-write, failover-read fleet-10k
//	tracker               ckpt_sim_ms_*, stored_bytes_ratio    ckpt-write                failover-read, fleet-10k
//	capture               ops_per_s, op_wall_ms_p90, memory    ckpt-write                failover-read, fleet-10k
//	encode (codec+CRC64)  ops_per_s                            ckpt-write (+ decode on   fleet-10k
//	                                                           failover-read, chaos-mix)
//	storage + erasure     ckpt_sim_ms_*, stored_bytes_ratio;   ckpt-write, failover-read fleet-10k
//	                      restore_sim_ms_*
//	chain                 restore_sim_ms_*, op_wall_ms_*       failover-read             ckpt-write
//	replay                restore_sim_ms_*, ops_per_s          failover-read (eager)     ckpt-write, fleet-10k
//	lazy                  ttfi_sim_ms_p50                      failover-read (lazy)      ckpt-write, fleet-10k
//	cluster + policy      work_lost_sim_ms, makespan_sim_ms,   chaos-mix                 ckpt-write, failover-read
//	                      ops_per_s
//	chaos (harness)       none: its own share, which no        chaos-mix                 -
//	                      optimisation may claim
//	detector              ops_per_s                            fleet-10k, chaos-mix      ckpt-write, failover-read
//	fleet                 ops_per_s                            fleet-10k                 all others
//	trace                 ops_per_s                            fleet-10k                 ckpt-write
//	Go runtime            go_mem_mb_p50, peak_rss_mb,          all                       -
//	                      op_wall_ms_p90
//
// Why the end-to-end set holds only wall-clock and memory figures: an
// end-to-end metric is reported by every workload, must never be 0, and
// must vary with what it measures. The simulated figures exist on one
// workload each, and the fleet's detection latency is quantized to its
// 1 ms tick (6 ms on every seed), so it is printed as a report-only line.
// Peak RSS swings by half between runs of one seed on a loaded 2-CPU host
// (it follows when the collector runs), so the end-to-end memory figure is
// the median Go memory held between ops, and peak RSS is per-layer.

// bench is one set-up workload instance.
type bench interface {
	// ops is the length of the seed-drawn op list.
	ops() int
	// prepare readies op i before its timer starts (a spare machine, a
	// storage outage).
	prepare(i int) error
	// run executes op i; i >= ops() cycles the list. Only run is timed.
	run(i int, tr *tracer) error
	// check verifies op i's outputs, outside the timed region.
	check(i int, tr *tracer) error
	// finish runs the end-of-run checks.
	finish() error
	// report adds the workload's simulated metrics, taken from the first
	// pass, and its per-layer counts.
	report(m metrics, tr *tracer, n int)
}

// workloadDef names a workload and builds it from a seed.
type workloadDef struct {
	name  string
	why   string
	image string // application image size, printed against the L2 size
	setup func(seed int64) (bench, error)
}

var workloads = []workloadDef{
	{"ckpt-write", "delta chains of a large app to 2+1 erasure storage: capture, encode and writes carry the load",
		fmt.Sprintf("%d MiB", ckptWriteMiB), newCkptWrite},
	{"failover-read", "eager and lazy restores of 16-delta chains, a third degraded: chain read, replay and lazy fills",
		fmt.Sprintf("%d MiB", failoverMiB), newFailoverRead},
	{"chaos-mix", "seeded chaos runs of the autonomic supervisor over the full fault palette: app stepping and orchestration",
		"1 MiB", newChaosMix},
	{"fleet-10k", "10k-node fleet runs with staggered faults: detector digests and shard ticks, no checkpoint data path",
		"96 B per checkpoint", newFleet},
}

func lookupWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Widths pinned for every capture, encode and replay, so simulated costs
// do not depend on the host's core count.
const (
	captureWidth = 2
	replayWidth  = 2
)

// seedFor derives an independent sub-seed for stream k of a run.
func seedFor(seed int64, k int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int64(x & (1<<62 - 1))
}
