package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// heldOutSeed is kept out of every tuning run. The benchmark was tuned on
// seeds 1-10; a change that claims a gain must also show its gain on this
// seed, so the claim holds on inputs no one looked at while writing it.
const heldOutSeed = 7919

// testOps is how many ops of each list the self-tests run.
const testOps = 12

// runPrefix builds a workload from seed and runs the first testOps ops
// of its list with a tracer, returning its simulated metrics and the
// tracer's per-layer counts.
func runPrefix(t *testing.T, wl *workloadDef, seed int64) (metrics, map[string]float64) {
	t.Helper()
	b, err := wl.setup(seed)
	if err != nil {
		t.Fatalf("%s: setup: %v", wl.name, err)
	}
	tr := newTracer()
	for i := 0; i < testOps; i++ {
		if err := b.prepare(i); err != nil {
			t.Fatalf("%s: op %d: %v", wl.name, i, err)
		}
		if err := b.run(i, tr); err != nil {
			t.Fatalf("%s: op %d: %v", wl.name, i, err)
		}
		if err := b.check(i, tr); err != nil {
			t.Fatalf("%s: op %d check: %v", wl.name, i, err)
		}
	}
	if err := b.finish(); err != nil {
		t.Fatalf("%s: final check: %v", wl.name, err)
	}
	m := metrics{}
	b.report(m, nil, testOps)
	return m, tr.counts
}

func TestSameSeedRepeatsSimMetricsAndCounts(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			m1, c1 := runPrefix(t, wl, 3)
			m2, c2 := runPrefix(t, wl, 3)
			if len(m1) == 0 {
				t.Fatal("no simulated metrics reported")
			}
			if !reflect.DeepEqual(m1, m2) {
				t.Errorf("simulated metrics differ for one seed:\n%v\n%v", m1, m2)
			}
			if !reflect.DeepEqual(c1, c2) {
				t.Errorf("per-layer counts differ for one seed:\n%v\n%v", c1, c2)
			}
		})
	}
}

// opList renders a workload's seed-drawn op list.
func opList(b bench) string {
	switch b := b.(type) {
	case *ckptWrite:
		return fmt.Sprint(b.iters)
	case *failoverRead:
		return fmt.Sprint(b.list)
	case *chaosMix:
		var seeds []int64
		for _, sp := range b.specs {
			seeds = append(seeds, sp.Seed)
		}
		return fmt.Sprint(seeds)
	case *fleetBench:
		return fmt.Sprint(b.schedules)
	}
	return ""
}

func TestSeedDrawsOpList(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			a, err := wl.setup(1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := wl.setup(2)
			if err != nil {
				t.Fatal(err)
			}
			again, err := wl.setup(1)
			if err != nil {
				t.Fatal(err)
			}
			if opList(a) == "" || opList(a) == opList(b) {
				t.Errorf("seeds 1 and 2 give the same op list")
			}
			if opList(a) != opList(again) {
				t.Errorf("seed 1 gives two op lists")
			}
			if a.ops() < 100 {
				t.Errorf("%d ops in the list, want >= 100 so p90 has 10 samples beyond it", a.ops())
			}
		})
	}
}

// TestSimMetricsIgnoreHostParallelism runs the write path at two
// GOMAXPROCS settings: the capture and replay widths are constants, so
// the simulated numbers must not move.
func TestSimMetricsIgnoreHostParallelism(t *testing.T) {
	wl := lookupWorkload("ckpt-write")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one, _ := runPrefix(t, wl, 5)
	runtime.GOMAXPROCS(2)
	two, _ := runPrefix(t, wl, 5)
	if !reflect.DeepEqual(one, two) {
		t.Errorf("simulated metrics depend on GOMAXPROCS:\n%v\n%v", one, two)
	}
	for _, f := range []string{"ckptwrite.go", "failover.go", "chaosmix.go", "fleet.go"} {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "DefaultParallelism(") {
			t.Errorf("%s sizes a width from the host", f)
		}
	}
}

func TestHeldOutSeedIsNotATuningSeed(t *testing.T) {
	if heldOutSeed >= 1 && heldOutSeed <= 10 {
		t.Fatal("held-out seed overlaps the tuning seeds")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables of the program in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	same := func(group string, got []struct{ Name, Unit string }, defs []metricDef) {
		have := map[string]string{}
		for _, d := range defs {
			have[d.name] = d.unit
		}
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", group, len(got), len(defs))
		}
		for _, m := range got {
			if u, ok := have[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s (%s) not in the program as listed", group, m.Name, m.Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestClassify(t *testing.T) {
	cases := []struct {
		frames []frame
		want   string
	}{
		{[]frame{{"hash/crc64.update", ""}, {"repro/internal/checkpoint.(*Image).Encode", "/x/image.go"}}, "crc64"},
		{[]frame{{"runtime.memmove", ""}, {"repro/internal/storage.(*Local).ReadObject", "/x/storage.go"}}, "copy"},
		{[]frame{{"runtime.scanobject", ""}, {"runtime.gcDrain", ""}, {"runtime.gcBgMarkWorker", ""}}, "gc"},
		{[]frame{{"sort.Slice", ""}, {"repro/internal/checkpoint.(*KernelWPTracker).Collect", "/x/tracker.go"}}, "tracker"},
		{[]frame{{"repro/internal/cluster.(*shardSup).loop", "/x/shard.go"}}, "fleet"},
		{[]frame{{"repro/internal/cluster.(*Supervisor).Run", "/x/cluster.go"}}, "cluster"},
		{[]frame{{"repro/internal/workload.pageBuf", "/x/workload.go"}}, "workload"},
		{[]frame{{"main.(*fleetBench).run", "/x/fleet.go"}}, "bench"},
		{[]frame{{"runtime.schedule", ""}}, "runtime"},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
