package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// TestAttributeRecordedProfile records a CPU profile of a few small
// simulations and checks that the module shares cover it exactly.
func TestAttributeRecordedProfile(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("profiling is skipped under -race and -short")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	w, err := specByName("sharegpt-steady")
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		w.round(1, 30, newSpanLog())
	}
	pprof.StopCPUProfile()

	a, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.samples == 0 {
		t.Fatal("profile holds no samples")
	}
	listed := map[string]bool{}
	var sum float64
	for _, m := range modules {
		listed[m] = true
		sum += a.share(m)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("module shares sum to %v, want 1", sum)
	}
	for m := range a.moduleNs {
		if !listed[m] {
			t.Errorf("samples charged to unlisted module %q", m)
		}
	}
	if a.share("gpusim")+a.share("sim")+a.share("engine") == 0 {
		t.Errorf("no samples in the simulator core: %v", a.moduleNs)
	}
}

// pb builds protobuf wire-format messages for decoder tests.
type pb []byte

func (p pb) varint(num int, v uint64) pb {
	p = binary.AppendUvarint(p, uint64(num)<<3|wireVarint)
	return binary.AppendUvarint(p, v)
}

func (p pb) bytes(num int, b []byte) pb {
	p = binary.AppendUvarint(p, uint64(num)<<3|wireBytes)
	p = binary.AppendUvarint(p, uint64(len(b)))
	return append(p, b...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestAttributeDecodesBothEncodings covers what a recorded profile may
// not: unpacked and packed repeated fields, inlined frames, fixed-width
// fields to skip, and every attribution fallback.
func TestAttributeDecodesBothEncodings(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/gpusim.(*GPU).recompute", "runtime.mallocgc", "main.main",
		"repro/internal/baselines/chunked.New", "repro/internal/sched.(*Scheduler).Decide"}
	var prof pb
	prof = prof.bytes(profSampleType, pb{}.varint(1, 1).varint(2, 2))
	prof = prof.bytes(profSampleType, pb{}.varint(1, 3).varint(2, 4))
	for id, name := range []uint64{5, 6, 7, 8, 9} {
		prof = prof.bytes(profFunction, pb{}.varint(functionID, uint64(id+1)).varint(functionName, name))
	}
	for id := uint64(1); id <= 4; id++ {
		prof = prof.bytes(profLocation, pb{}.varint(locationID, id).
			bytes(locationLine, pb{}.varint(lineFunction, id)))
	}
	// Location 5 is sched inlined into gpusim: the innermost line wins.
	prof = prof.bytes(profLocation, pb{}.varint(locationID, 5).
		bytes(locationLine, pb{}.varint(lineFunction, 5)).
		bytes(locationLine, pb{}.varint(lineFunction, 1)))
	// 64-bit and 32-bit fields are skipped.
	prof = append(binary.AppendUvarint(prof, 9<<3|wireFixed64), make([]byte, 8)...)
	prof = append(binary.AppendUvarint(prof, 13<<3|wireFixed32), make([]byte, 4)...)
	// mallocgc under gpusim, unpacked: charged to gpusim.
	prof = prof.bytes(profSample, pb{}.varint(sampleLocation, 2).varint(sampleLocation, 1).
		varint(sampleValue, 1).varint(sampleValue, 100))
	// Inlined sched frame, packed: charged to sched.
	prof = prof.bytes(profSample, pb{}.bytes(sampleLocation, packed(5, 2, 3)).bytes(sampleValue, packed(1, 20)))
	// main.main alone: other. chunked: other (unlisted module). mallocgc alone: runtime.
	prof = prof.bytes(profSample, pb{}.varint(sampleLocation, 3).bytes(sampleValue, packed(1, 3)))
	prof = prof.bytes(profSample, pb{}.varint(sampleLocation, 4).bytes(sampleValue, packed(1, 4)))
	prof = prof.bytes(profSample, pb{}.varint(sampleLocation, 2).bytes(sampleValue, packed(1, 5)))
	for _, s := range strs {
		prof = prof.bytes(profStrings, []byte(s))
	}

	a, err := attribute(gzipped(prof))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"gpusim": 100, "sched": 20, "other": 7, "runtime": 5}
	if a.samples != 5 || a.totalNs != 132 || len(a.moduleNs) != len(want) {
		t.Errorf("samples %d, total %d, modules %v", a.samples, a.totalNs, a.moduleNs)
	}
	for m, ns := range want {
		if a.moduleNs[m] != ns {
			t.Errorf("%s: %d ns, want %d", m, a.moduleNs[m], ns)
		}
	}

	for _, bad := range [][]byte{
		[]byte("not gzip"),
		gzipped(prof[:len(prof)-3]),
		gzipped(pb{}.bytes(profSample, pb{}.varint(sampleLocation, 1))), // no values
		gzipped([]byte{0x0b}), // wire type 3
	} {
		if _, err := attribute(bad); err == nil {
			t.Errorf("attribute(%q) succeeded", bad)
		}
	}
}

func gzipped(b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(b)
	zw.Close()
	return buf.Bytes()
}
