package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The traced run's CPU profile is read directly from the gzipped
// profile.proto that runtime/pprof writes, so attribution needs neither
// `go tool pprof` nor its text output. Only the fields attribution uses
// are decoded: samples (location ids + values), locations (their line
// records, innermost inlined function first), functions (name index) and
// the string table.

// profile is the decoded subset of a pprof profile.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, leaf (innermost inlined) first
	functions map[uint64]int64    // function id -> name index into strings
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	value     int64    // first sample value: the sample count for CPU profiles
}

// parseProfile decodes a (possibly gzip-compressed) pprof profile.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			s, err := parseSample(b)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			id, fns, err := parseLocation(b)
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile decode: %w", err)
	}
	return p, nil
}

func parseSample(b []byte) (sample, error) {
	var s sample
	first := true
	err := eachField(b, func(num, wire int, v uint64, raw []byte) error {
		switch num {
		case 1:
			return eachVarint(wire, v, raw, func(x uint64) { s.locations = append(s.locations, x) })
		case 2:
			return eachVarint(wire, v, raw, func(x uint64) {
				if first {
					s.value, first = int64(x), false
				}
			})
		}
		return nil
	})
	return s, err
}

func parseLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	err := eachField(b, func(num, wire int, v uint64, raw []byte) error {
		switch num {
		case 1:
			id = v
		case 4: // Line
			return eachField(raw, func(num, wire int, v uint64, _ []byte) error {
				if num == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type plus its varint value (wire type 0) or its bytes
// (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, raw []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var raw []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			raw = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, raw); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field in either encoding: one
// value (wire type 0) or a packed run (wire type 2). runtime/pprof emits
// both, depending on the slice length.
func eachVarint(wire int, v uint64, raw []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(raw) > 0 {
		x, n := uvarint(raw)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		raw = raw[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcName resolves a function id to its symbol name.
func (p *profile) funcName(id uint64) string {
	idx, ok := p.functions[id]
	if !ok || idx < 0 || int(idx) >= len(p.strings) {
		return ""
	}
	return p.strings[idx]
}

// attribution is the CPU profile split by module of the leaf frame.
type attribution struct {
	total int64
	self  map[string]int64 // module -> samples whose leaf frame is in it
	gc    int64            // samples with a garbage-collector frame anywhere on the stack
}

func (a attribution) frac(module string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.self[module]) / float64(a.total)
}

func (a attribution) gcFrac() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.gc) / float64(a.total)
}

// attribute assigns each sample to the module of its leaf frame: the
// innermost inlined function of the sample's first location.
func (p *profile) attribute() attribution {
	a := attribution{self: map[string]int64{}}
	for _, s := range p.samples {
		leaf := ""
		gc := false
		for i, loc := range s.locations {
			for j, fid := range p.locations[loc] {
				name := p.funcName(fid)
				if i == 0 && j == 0 {
					leaf = name
				}
				gc = gc || isGCFrame(name)
			}
		}
		a.total += s.value
		a.self[moduleOf(leaf)] += s.value
		if gc {
			a.gc += s.value
		}
	}
	return a
}

// top lists the n modules with the most self samples, largest first.
func (a attribution) top(n int) []string {
	var mods []string
	for m := range a.self {
		mods = append(mods, m)
	}
	sort.Slice(mods, func(i, j int) bool {
		if a.self[mods[i]] != a.self[mods[j]] {
			return a.self[mods[i]] > a.self[mods[j]]
		}
		return mods[i] < mods[j]
	})
	if len(mods) > n {
		mods = mods[:n]
	}
	return mods
}

// pkgPath extracts the import path from a symbol name such as
// "vcalab/internal/sim.(*Engine).siftDown" or
// "vcalab/internal/runner.Map[...].func1": the path runs to the first
// dot after the last slash, ignoring any generic instantiation.
func pkgPath(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// moduleOf names the layer a symbol belongs to: the vcalab package
// directly under internal/ ("sim", "netem", "vca", ...), "runtime" for
// the Go runtime (scheduler, allocator, garbage collector, maps),
// "bench" for this benchmark's own code (package main, or its import
// path in a test binary), "vcalab" for the facade and commands, and "stdlib" for the rest of the standard library.
func moduleOf(fn string) string {
	pkg := pkgPath(fn)
	switch {
	case pkg == "main", pkg == "vcalab/perfbench":
		return "bench"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "vcalab/internal/"):
		rest := strings.TrimPrefix(pkg, "vcalab/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "vcalab", strings.HasPrefix(pkg, "vcalab/"):
		return "vcalab"
	}
	return "stdlib"
}

// isGCFrame reports whether a runtime frame does garbage-collection
// work: background and assist marking, sweeping, scavenging and write
// barriers. Allocation itself (mallocgc) is not collection.
func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.wbBufFlush", "runtime.wbBufFlush1":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}
