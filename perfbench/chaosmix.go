package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/chaos"
)

// chaos-mix: one op is chaos.Run(chaos.Generate(s)) for a seed-drawn
// scenario seed s — the autonomic Supervisor over the generator's full
// palette (incremental chains, pipeline, replication, sharded detection,
// lazy restore, policy and liveness) under DefaultCheckers. An op passes
// when the run reports no invariant violation.
const (
	chaosOps        = 200
	chaosPoolFactor = 4
)

// chaosWarmSeeds are the scenarios set-up runs before timing.
var chaosWarmSeeds = []int64{1, 2, 3}

type chaosMix struct {
	specs []*chaos.Spec
	last  *chaos.Result

	// First-pass records.
	makespan         []float64 // ms per scenario
	lostMs, failures float64
}

func newChaosMix(seed int64) (bench, error) {
	c := &chaosMix{}
	// Stratified draw: generate a seed-drawn pool, sort it by a cost proxy
	// (app pages written: iterations x write fraction), and take one
	// scenario at random from each of chaosOps equal strata. Every seed
	// then gets the same spread of scenario sizes, so the work in a run
	// does not vary with the seed.
	rng := rand.New(rand.NewSource(seedFor(seed, 5)))
	base := seedFor(seed, 7) % (1 << 40)
	pool := make([]*chaos.Spec, chaosOps*chaosPoolFactor)
	for i := range pool {
		pool[i] = chaos.Generate(base + int64(i))
	}
	cost := func(sp *chaos.Spec) float64 { return float64(sp.Iterations) * sp.WriteFrac }
	sort.SliceStable(pool, func(a, b int) bool { return cost(pool[a]) < cost(pool[b]) })
	for i := 0; i < chaosOps; i++ {
		c.specs = append(c.specs, pool[i*chaosPoolFactor+rng.Intn(chaosPoolFactor)])
	}
	rng.Shuffle(len(c.specs), func(a, b int) { c.specs[a], c.specs[b] = c.specs[b], c.specs[a] })
	// Warm the code paths with fixed scenarios outside the op list, so
	// set-up costs the same for every seed.
	for _, s := range chaosWarmSeeds {
		if res := chaos.Run(chaos.Generate(s)); len(res.Violations) > 0 {
			return nil, fmt.Errorf("warm-up scenario %d: %v", s, res.Violations[0])
		}
	}
	return c, nil
}

func (c *chaosMix) ops() int          { return len(c.specs) }
func (c *chaosMix) prepare(int) error { return nil }

func (c *chaosMix) run(i int, tr *tracer) error {
	done := tr.span("chaos.Run")
	c.last = chaos.Run(c.specs[i%len(c.specs)])
	done()
	return nil
}

func (c *chaosMix) check(i int, tr *tracer) error {
	res := c.last
	c.last = nil
	if i < len(c.specs) {
		c.makespan = append(c.makespan, res.Makespan.Millis())
		c.lostMs += res.WorkLostTotalMS()
		c.failures += float64(res.WorkLost.N)
	}
	if tr != nil {
		tr.add("cluster.checkpoints", float64(res.Checkpoints))
		tr.add("cluster.restarts", float64(res.Restarts))
		tr.add("cluster.from_scratch", float64(res.FromScratch))
		ctr := parseCounters(res.Counters)
		for name, key := range map[string]string{
			"cluster.bytes_shipped":    "ckpt.bytes_shipped",
			"cluster.ckpt_failed":      "ckpt.failed",
			"pipe.stalls":              "pipe.stalls",
			"compact.folds":            "compact.folds",
			"policy.recomputes":        "policy.recompute",
			"detector.detections":      "det.detections",
			"detector.false_positives": "det.false_positives",
		} {
			tr.add(name, ctr[key])
		}
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("seed %d: %v", res.Spec.Seed, res.Violations[0])
	}
	return nil
}

func (c *chaosMix) finish() error { return nil }

func (c *chaosMix) report(m metrics, tr *tracer, n int) {
	m["makespan_sim_ms"] = mean(c.makespan)
	m["work_lost_sim_ms"] = ratio(c.lostMs, c.failures)
	if tr == nil {
		return
	}
	per := func(name string) float64 { return tr.counts[name] / float64(n) }
	for _, name := range []string{"cluster.checkpoints", "cluster.restarts", "cluster.bytes_shipped",
		"pipe.stalls", "compact.folds", "policy.recomputes", "detector.detections", "detector.false_positives"} {
		m[name] = per(name)
	}
	m["cluster.from_scratch_ratio"] = ratio(tr.counts["cluster.from_scratch"], tr.counts["cluster.restarts"])
	m["cluster.ckpt_failed_ratio"] = ratio(tr.counts["cluster.ckpt_failed"],
		tr.counts["cluster.ckpt_failed"]+tr.counts["cluster.checkpoints"])
}

// parseCounters reads the "name=value" lines of a rendered counter set.
func parseCounters(s string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(s, "\n") {
		name, val, ok := strings.Cut(line, "=")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}
