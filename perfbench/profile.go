package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// CPU-profile attribution for the traced run. chaos.Run and the fleet's
// Run are single calls that cannot be split into layers from outside, so
// the traced run takes a CPU profile and charges every sample to a row:
//
//   - gc: any frame is a garbage-collector worker or assist;
//   - crc64: the innermost frame is in hash/crc64;
//   - copy: the innermost frame is runtime memmove or memclr;
//   - otherwise the innermost frame in a repository package, mapped by
//     package (and, for internal/checkpoint and internal/cluster, by
//     source file) through layerOf;
//   - runtime: no frame in the repository (scheduler, idle stacks).
//
// The decoder reads only the fields of the pprof protobuf it needs, so the
// benchmark stays standard-library only.

// cpuRows lists every attribution row, in report order.
var cpuRows = []string{
	"workload", "mem", "tracker", "capture", "encode", "replay", "lazy", "checkpoint",
	"storage", "erasure", "cluster", "fleet", "chaos", "detector", "trace",
	"crc64", "copy", "gc", "runtime", "bench",
}

// pkgLayer maps a repository package to its attribution row. The
// workload row covers kernel stepping and the simulated clock as well as
// internal/workload: they run only while the app steps.
var pkgLayer = map[string]string{
	"repro/internal/workload":        "workload",
	"repro/internal/simos/kernel":    "workload",
	"repro/internal/simos/proc":      "workload",
	"repro/internal/simos/sched":     "workload",
	"repro/internal/simos/sig":       "workload",
	"repro/internal/simos/fs":        "workload",
	"repro/internal/simtime":         "workload",
	"repro/internal/costmodel":       "workload",
	"repro/internal/simos/mem":       "mem",
	"repro/internal/storage":         "storage",
	"repro/internal/storage/erasure": "erasure",
	"repro/internal/cluster":         "cluster",
	"repro/internal/policy":          "cluster",
	"repro/internal/mechanism":       "cluster",
	"repro/internal/syslevel":        "cluster",
	"repro/internal/userlevel":       "cluster",
	"repro/internal/chaos":           "chaos",
	"repro/internal/scenario":        "chaos",
	"repro/internal/detector":        "detector",
	"repro/internal/trace":           "trace",
	"main":                           "bench",
}

// checkpointFile splits internal/checkpoint by source file.
var checkpointFile = map[string]string{
	"tracker.go":          "tracker",
	"liveness.go":         "tracker",
	"hybrid.go":           "tracker",
	"capture.go":          "capture",
	"accessor.go":         "capture",
	"image.go":            "encode",
	"encode_parallel.go":  "encode",
	"crc64combine.go":     "encode",
	"verify.go":           "encode",
	"restore.go":          "replay",
	"restore_parallel.go": "replay",
	"lazy.go":             "lazy",
}

// fleetFile marks the internal/cluster files of the fleet control plane.
var fleetFile = map[string]bool{"fleet.go": true, "root.go": true, "shard.go": true}

var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.gcDrain": true, "runtime.markroot": true,
	"runtime.gcStart": true, "runtime.GC": true,
}

var copyFrames = map[string]bool{
	"runtime.memmove": true, "runtime.memclrNoHeapPointers": true, "runtime.memclrHasPointers": true,
}

type frame struct{ fn, file string }

// packageOf returns the import path of a symbol such as
// "repro/internal/checkpoint.(*Image).Encode".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf returns the attribution row of one repository frame, or "".
func layerOf(f frame) string {
	pkg := packageOf(f.fn)
	switch pkg {
	case "repro/internal/checkpoint":
		if row, ok := checkpointFile[path.Base(f.file)]; ok {
			return row
		}
		return "checkpoint"
	case "repro/internal/cluster":
		if fleetFile[path.Base(f.file)] {
			return "fleet"
		}
	}
	return pkgLayer[pkg]
}

// classify returns the attribution row of one sample, frames innermost first.
func classify(frames []frame) string {
	for _, f := range frames {
		if gcFrames[f.fn] {
			return "gc"
		}
	}
	if len(frames) > 0 {
		if strings.HasPrefix(frames[0].fn, "hash/crc64.") {
			return "crc64"
		}
		if copyFrames[frames[0].fn] {
			return "copy"
		}
	}
	for _, f := range frames {
		if row := layerOf(f); row != "" {
			return row
		}
	}
	return "runtime"
}

// cpuShares parses a gzipped pprof CPU profile and returns each row's
// share of the sampled CPU time, plus the sample count.
func cpuShares(prof []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	weights := make(map[string]float64)
	total := 0.0
	samples := 0
	for _, s := range p.samples {
		var frames []frame
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				fn := p.funcs[fid]
				frames = append(frames, frame{fn: p.str(fn.name), file: p.str(fn.file)})
			}
		}
		w := 1.0
		if len(s.vals) > 1 {
			w = float64(s.vals[1]) // CPU nanoseconds
		}
		weights[classify(frames)] += w
		total += w
		samples++
	}
	shares := make(map[string]float64, len(cpuRows))
	for _, row := range cpuRows {
		shares[row] = ratio(weights[row], total)
	}
	return shares, samples, nil
}

// profile holds the decoded subset of a pprof message.
type profile struct {
	strs     []string
	samples  []sample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]function
}

type sample struct {
	locs []uint64
	vals []int64
}

type function struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

var errProto = errors.New("profile: malformed protobuf")

// pb is a cursor over one protobuf message.
type pb struct {
	b   []byte
	err error
}

func (d *pb) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			d.err = errProto
			return 0
		}
		c := d.b[0]
		d.b = d.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	d.err = errProto
	return 0
}

// next returns the next field number, wire type, and — for
// length-delimited fields — the payload; varint fields return their value.
func (d *pb) next() (num int, wire int, val uint64, data []byte) {
	key := d.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val = d.varint()
	case 1:
		if len(d.b) < 8 {
			d.err = errProto
			return
		}
		d.b = d.b[8:]
	case 2:
		n := d.varint()
		if uint64(len(d.b)) < n {
			d.err = errProto
			return
		}
		data, d.b = d.b[:n], d.b[n:]
	case 5:
		if len(d.b) < 4 {
			d.err = errProto
			return
		}
		d.b = d.b[4:]
	default:
		d.err = errProto
	}
	return
}

// uints appends a repeated uint64 field that may be packed or not.
func uints(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	in := pb{b: data}
	for len(in.b) > 0 && in.err == nil {
		dst = append(dst, in.varint())
	}
	return dst, in.err
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locLines: make(map[uint64][]uint64), funcs: make(map[uint64]function)}
	d := pb{b: raw}
	for len(d.b) > 0 && d.err == nil {
		num, wire, _, data := d.next()
		if d.err != nil || wire != 2 {
			continue
		}
		var err error
		switch num {
		case 2:
			err = p.decodeSample(data)
		case 4:
			err = p.decodeLocation(data)
		case 5:
			err = p.decodeFunction(data)
		case 6:
			p.strs = append(p.strs, string(data))
		}
		if err != nil {
			return nil, err
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}

func (p *profile) decodeSample(data []byte) error {
	var s sample
	d := pb{b: data}
	for len(d.b) > 0 && d.err == nil {
		num, wire, val, sub := d.next()
		var err error
		switch num {
		case 1:
			s.locs, err = uints(s.locs, wire, val, sub)
		case 2:
			var vs []uint64
			vs, err = uints(nil, wire, val, sub)
			for _, v := range vs {
				s.vals = append(s.vals, int64(v))
			}
		}
		if err != nil {
			return err
		}
	}
	p.samples = append(p.samples, s)
	return d.err
}

func (p *profile) decodeLocation(data []byte) error {
	var id uint64
	var fids []uint64
	d := pb{b: data}
	for len(d.b) > 0 && d.err == nil {
		num, _, val, sub := d.next()
		switch num {
		case 1:
			id = val
		case 4:
			line := pb{b: sub}
			for len(line.b) > 0 && line.err == nil {
				if n, _, v, _ := line.next(); n == 1 {
					fids = append(fids, v)
				}
			}
			if line.err != nil {
				return line.err
			}
		}
	}
	p.locLines[id] = fids
	return d.err
}

func (p *profile) decodeFunction(data []byte) error {
	var id uint64
	var fn function
	d := pb{b: data}
	for len(d.b) > 0 && d.err == nil {
		num, _, val, _ := d.next()
		switch num {
		case 1:
			id = val
		case 2:
			fn.name = int64(val)
		case 4:
			fn.file = int64(val)
		}
	}
	p.funcs[id] = fn
	return d.err
}
