package calib

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/model"
)

// tableDigest folds a latency table into one FNV-64a value: RefSMs, then
// per operator in sorted order its name, then per support its token
// coordinate and every quantile's bits. It also counts the quantiles.
func tableDigest(table *gpusim.LatencyTable) (sum uint64, quantiles int) {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(table.RefSMs))
	ops := make([]string, 0, len(table.Ops))
	for op := range table.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		h.Write([]byte(op))
		for _, s := range table.Ops[op] {
			u64(uint64(s.Tokens))
			for _, q := range s.Q {
				u64(math.Float64bits(q.Float()))
				quantiles++
			}
		}
	}
	return h.Sum64(), quantiles
}

// TestSelfCalibrateOracle pins the self-calibrated tables bit for bit:
// every sampled-backend run draws from them, so a change to the sweep,
// the fit or the analytic model shows here before it shows in a golden.
func TestSelfCalibrateOracle(t *testing.T) {
	cfg := model.Llama31_8B()
	for _, c := range []struct {
		spec gpusim.Spec
		want uint64
	}{
		{gpusim.A100(), 0x1e5876a0effa5198},
		{gpusim.H100(), 0x54d8941b667dd906},
	} {
		table, err := SelfCalibrate(cfg, c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Name, err)
		}
		got, n := tableDigest(table)
		if got != c.want || len(table.Ops) != 9 || n != 360 {
			t.Errorf("%s: digest %#x over %d operators and %d quantiles, want %#x over 9 and 360",
				c.spec.Name, got, len(table.Ops), n, c.want)
		}
	}
}
