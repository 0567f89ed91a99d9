// Command perfbench is the repository's benchmark for the checkpoint/
// restart engine on both of its clocks: wall time (how fast the Go engine
// runs) and simulated time (what the modelled C/R system costs).
//
// One run measures one named workload from a seed:
//
//	perfbench --workload ckpt-write --seed 1 --seconds 20 --trace 0
//
// It prints the environment, one report line per metric, and as its last
// line a JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 it runs
// the op list untraced and then traced (spans, allocation deltas, CPU
// profile) and reports the per-layer metrics, writing the span timeline
// to .bench_build/spans-<workload>-<seed>.json. See workloads.go for why
// each workload exists.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times an untraced run builds its workload;
// setup_s is the median, and the last build is the one measured.
const setupRepeats = 3

// maxProcs caps GOMAXPROCS: the load is one closed-loop client, and the
// widths it uses are 2.
const maxProcs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string // span timeline of a traced run
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the op list is drawn from")
	seconds := fs.Float64("seconds", 20, "measured seconds (the whole op list always runs once)")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := lookupWorkload(*name)
	if wl == nil || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --trace 0|1, --seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		spans: fmt.Sprintf(".bench_build/spans-%s-%d.json", wl.name, *seed)}

	if runtime.NumCPU() < maxProcs {
		runtime.GOMAXPROCS(runtime.NumCPU())
	} else {
		runtime.GOMAXPROCS(maxProcs)
	}
	printEnv(stdout, wl)

	res, err := measure(wl, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printEnv reports what the numbers depend on: toolchain, CPUs, and the
// workload's image sizes against the L2 cache.
func printEnv(w io.Writer, wl *workloadDef) {
	fmt.Fprintf(w, "# %s %s/%s nproc=%d GOMAXPROCS=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# workload %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "# image %s vs L2 %s\n", wl.image, l2Size())
}

// l2Size reads the L2 size of CPU 0 from sysfs ("unknown" elsewhere).
func l2Size() string {
	data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// passResult is what one pass over the op list measured.
type passResult struct {
	lat      []float64 // op wall latencies, ms
	mem      []float64 // Go memory held after each op, MiB
	wall     time.Duration
	attempts int
	failed   int
	firstErr error
}

// pass runs ops [from, to) and keeps cycling the list until minDur of op
// wall time has been measured. Only run is timed; prepare and check are not.
func pass(b bench, from, to int, minDur time.Duration, tr *tracer) passResult {
	var pr passResult
	for i := from; i < to || pr.wall < minDur; i++ {
		tr.setOp(i)
		var d time.Duration
		err := b.prepare(i)
		if err == nil {
			t0 := time.Now()
			err = b.run(i, tr)
			d = time.Since(t0)
		}
		if err == nil {
			err = b.check(i, tr)
		}
		pr.wall += d
		pr.mem = append(pr.mem, goMemMiB())
		pr.attempts++
		pr.lat = append(pr.lat, float64(d.Nanoseconds())/1e6)
		if err != nil {
			pr.failed++
			if pr.firstErr == nil {
				pr.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return pr
}

func (pr passResult) opsPerSec() float64 {
	return ratio(float64(pr.attempts), pr.wall.Seconds())
}

func measure(wl *workloadDef, cfg config, out io.Writer) (*result, error) {
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var b bench
	var setupS []float64
	for r := 0; r < repeats; r++ {
		b = nil
		runtime.GC()
		t0 := time.Now()
		nb, err := wl.setup(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		b = nb
	}
	runtime.GC()
	n := b.ops()
	if n < 100 {
		return nil, fmt.Errorf("op list has %d ops, want >= 100", n)
	}

	m := metrics{}
	var tr *tracer
	var first passResult
	if !cfg.trace {
		first = pass(b, 0, n, time.Duration(cfg.seconds*float64(time.Second)), nil)
	} else {
		first = pass(b, 0, n, 0, nil)
	}
	attempts, failed, firstErr := first.attempts, first.failed, first.firstErr

	if cfg.trace {
		tr = newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		traced := pass(b, n, 2*n, 0, tr)
		runtime.ReadMemStats(&ms1)
		pprof.StopCPUProfile()
		attempts += traced.attempts
		failed += traced.failed
		if firstErr == nil {
			firstErr = traced.firstErr
		}
		shares, samples, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for row, share := range shares {
			m[row+".cpu_share"] = share
		}
		m["bench.profile_samples"] = float64(samples)
		m["gc.cycles"] = float64(ms1.NumGC-ms0.NumGC) / float64(n)
		m["alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib / float64(n)
		m["bench.ops_per_s_untraced"] = first.opsPerSec()
		m["bench.ops_per_s_traced"] = traced.opsPerSec()
		m["bench.trace_overhead"] = ratio(first.opsPerSec(), traced.opsPerSec()) - 1
		if err := tr.write(cfg.spans); err != nil {
			return nil, fmt.Errorf("spans: %w", err)
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(tr.spans), cfg.spans)
	}

	if err := b.finish(); err != nil {
		failed++
		if firstErr == nil {
			firstErr = fmt.Errorf("final check: %w", err)
		}
	}
	if firstErr != nil {
		fmt.Fprintf(out, "# FAILED: %v\n", firstErr)
	}
	b.report(m, tr, n)
	m["failed_frac"] = ratio(float64(failed), float64(attempts))
	m["setup_s"] = quantile(setupS, 0.5)
	m["ops_per_s"] = first.opsPerSec()
	m["op_wall_ms_p50"] = quantile(first.lat, 0.5)
	m["op_wall_ms_p90"] = quantile(first.lat, 0.9)
	m["peak_rss_mb"] = peakRSSMiB()
	m["go_mem_mb_p50"] = quantile(first.mem, 0.5)

	fmt.Fprintf(out, "# %d ops in the list, %d attempted, %d failed, %.3f s of op wall time\n",
		n, attempts, failed, first.wall.Seconds())
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	printReport(out, m, endToEnd, perLayer)
	res := &result{Correct: failed == 0, Attempted: attempts, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return res, nil
}

// printReport prints one "name value unit" line per metric computed in
// this run: the defined metrics in order, then any report-only figures.
func printReport(out io.Writer, m metrics, groups ...[]metricDef) {
	seen := map[string]bool{}
	for _, defs := range groups {
		for _, d := range defs {
			seen[d.name] = true
			if v, ok := m[d.name]; ok {
				fmt.Fprintf(out, "%-28s %14s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
			}
		}
	}
	var extra []string
	for name := range m {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(out, "%-28s %14s (report only)\n", name, strconv.FormatFloat(m[name], 'g', 8, 64))
	}
}

var memSamples = []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}

// goMemMiB is the memory the Go runtime holds from the OS, less what it
// has released back.
func goMemMiB() float64 {
	rtmetrics.Read(memSamples)
	return float64(memSamples[0].Value.Uint64()-memSamples[1].Value.Uint64()) / mib
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

var errMismatch = errors.New("restored memory differs from the source")
