package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the simulator layers a CPU sample can be attributed to, in
// report order. "runtime" takes samples with no frame of this repository
// (GC workers, the scheduler); "other" takes the rest: internal packages
// not listed here and the benchmark's own code.
var modules = []string{
	"sim", "gpusim", "smmask", "model", "estimator", "sched", "metrics",
	"resource", "engine", "kvcache", "core", "cluster", "forkjoin",
	"resilience", "faults", "serving", "workload", "units", "timeline",
	"runtime", "other",
}

// attribution is the CPU time of one profile, split by module.
type attribution struct {
	samples  int
	totalNs  int64
	moduleNs map[string]int64
}

// share returns module m's fraction of the profiled CPU time.
func (a attribution) share(m string) float64 {
	if a.totalNs == 0 {
		return 0
	}
	return float64(a.moduleNs[m]) / float64(a.totalNs)
}

// attribute decodes a gzipped pprof CPU profile and charges each sample
// to the innermost repro/internal/<module> frame on its stack.
func attribute(gz []byte) (attribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return attribution{}, fmt.Errorf("bench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return attribution{}, fmt.Errorf("bench: profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return attribution{}, fmt.Errorf("bench: profile: %w", err)
	}
	listed := map[string]bool{}
	for _, m := range modules {
		listed[m] = true
	}
	a := attribution{moduleNs: map[string]int64{}}
	vi := p.cpuValueIndex()
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return attribution{}, errors.New("bench: profile: sample has no cpu value")
		}
		m := p.moduleOf(s.locations)
		if !listed[m] {
			m = "other"
		}
		a.samples++
		a.totalNs += s.values[vi]
		a.moduleNs[m] += s.values[vi]
	}
	return a, nil
}

// profile is the part of a pprof profile.proto that attribution reads.
type profile struct {
	strings     []string
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locFuncs    map[uint64][]uint64 // location -> function IDs, innermost inlined first
	funcNames   map[uint64]int64    // function -> string-table index of its name
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// cpuValueIndex picks the "cpu" value (nanoseconds) of each sample,
// falling back to the last value type.
func (p *profile) cpuValueIndex() int {
	for i, t := range p.sampleTypes {
		if t >= 0 && t < int64(len(p.strings)) && p.strings[t] == "cpu" {
			return i
		}
	}
	return len(p.sampleTypes) - 1
}

// moduleOf walks a stack from the leaf and returns the module of its
// first repro/internal frame; "other" if the stack has only benchmark
// frames (package main), "runtime" if it has no frame of this repository.
func (p *profile) moduleOf(locs []uint64) string {
	bench := false
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			idx := p.funcNames[fn]
			if idx < 0 || idx >= int64(len(p.strings)) {
				continue
			}
			name := p.strings[idx]
			if rest, ok := strings.CutPrefix(name, "repro/internal/"); ok {
				if i := strings.IndexAny(rest, "/."); i >= 0 {
					rest = rest[:i]
				}
				return rest
			}
			if strings.HasPrefix(name, "main.") {
				bench = true
			}
		}
	}
	if bench {
		return "other"
	}
	return "runtime"
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6

	valueTypeType = 1

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, msg []byte) error {
		switch {
		case num == profSampleType && wire == wireBytes:
			var typ int64
			err := eachField(msg, func(num, wire int, v uint64, _ []byte) error {
				if num == valueTypeType && wire == wireVarint {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case num == profSample && wire == wireBytes:
			var s sample
			err := eachField(msg, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(&s.locations, wire, v, sub)
				case sampleValue:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, sub); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case num == profLocation && wire == wireBytes:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num, wire int, v uint64, sub []byte) error {
				switch {
				case num == locationID && wire == wireVarint:
					id = v
				case num == locationLine && wire == wireBytes:
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunction && wire == wireVarint {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case num == profFunction && wire == wireBytes:
			var id uint64
			var name int64
			err := eachField(msg, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == functionID && wire == wireVarint:
					id = v
				case num == functionName && wire == wireVarint:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case num == profStrings && wire == wireBytes:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("truncated varint in field %d", num)
			}
			b = b[n:]
		case wireFixed64, wireFixed32:
			size := 8
			if wire == wireFixed32 {
				size = 4
			}
			if len(b) < size {
				return fmt.Errorf("truncated fixed field %d", num)
			}
			b = b[size:]
			continue
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("truncated bytes in field %d", num)
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints decodes a repeated varint field, which pprof writes
// packed or one value per field.
func appendVarints(dst *[]uint64, wire int, v uint64, packed []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	if wire != wireBytes {
		return fmt.Errorf("repeated varint with wire type %d", wire)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("truncated packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
