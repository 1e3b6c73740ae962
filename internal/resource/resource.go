// Package resource implements Bullet's computational resource manager
// (§3.4): fine-grained SM partitioning via pre-configured SM-masked
// streams, with instant (map-lookup) re-configuration.
//
// Rather than reprogramming stream masks on every scheduling decision, a
// table of streams is built up-front — one per (phase, SM count) pair at a
// quantization step (the paper profiles at a step of 6 SMs; the hardware
// mask granularity is 2). Switching a phase's allocation is then just
// launching on a different pre-built stream, which is what makes
// layer-wise re-configuration effectively free (Table 3).
//
// Prefill masks grow from the low SM indices and decode masks from the
// high ones, so any prefill/decode pair whose counts sum to at most the
// device size is strictly disjoint, while larger sums overlap in the
// middle — the intentional, non-strictly-isolated sharing of §3.4.2.
package resource

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/smmask"
	"repro/internal/timeline"
)

// Phase selects which side of the device a stream's mask grows from.
type Phase int

const (
	// Prefill masks occupy SMs [0, n).
	Prefill Phase = iota
	// Decode masks occupy SMs [M-n, M).
	Decode
)

func (p Phase) String() string {
	if p == Prefill {
		return "prefill"
	}
	return "decode"
}

// Manager owns the pre-configured stream table for one GPU.
type Manager struct {
	gpu     *gpusim.GPU
	step    int
	numSMs  int         // device SM count
	avail   int         // healthy SM count the current table draws from
	healthy smmask.Mask // healthy-SM set the current table draws from
	levels  []int
	streams map[Phase]map[int]*gpusim.Stream

	reconfigs int
	rebuilds  int
	current   map[Phase]int

	// idx is build's healthy-index scratch, resliced to [:0] per
	// rebuild: fault/recovery transitions re-derive the table on the hot
	// resilience path and must not allocate.
	idx []int

	// TL, when non-nil, records repartition/rebuild instants on the
	// "resource" lane.
	TL *timeline.Recorder
}

// NewManager builds the stream table. step is the SM allocation
// granularity; it must be positive, a multiple of the hardware granularity
// (2), and divide into useful levels of the device size. The device SM
// count itself is always a level even when step does not divide it.
func NewManager(gpu *gpusim.GPU, step int) *Manager {
	if step <= 0 || step%smmask.Granularity != 0 {
		panic(fmt.Sprintf("resource: invalid SM step %d", step))
	}
	m := &Manager{
		gpu:     gpu,
		step:    step,
		numSMs:  gpu.Spec.NumSMs,
		streams: map[Phase]map[int]*gpusim.Stream{Prefill: {}, Decode: {}},
		current: map[Phase]int{Prefill: gpu.Spec.NumSMs, Decode: gpu.Spec.NumSMs},
	}
	m.build(smmask.Full(m.numSMs))
	return m
}

// Rebuild re-derives the whole stream table from a changed healthy-SM
// set (SM faults or recoveries): levels shrink to the healthy count,
// prefill masks grow from the lowest healthy indices, decode masks from
// the highest, and existing streams are retargeted in place via SetMask
// so kernels already running keep the masks they launched with
// (libsmctrl semantics). The paper's pre-configured masked-stream table
// (§3.4) is exactly the mechanism that makes routing around dead SMs an
// O(levels) re-derivation instead of a serving pause.
//
//bullet:hotpath
func (m *Manager) Rebuild(healthy smmask.Mask) {
	m.build(healthy)
	m.rebuilds++
	if m.TL != nil {
		m.TL.Instant("resource", "rebuild", m.gpu.Sim().Now(),
			timeline.I("healthySMs", healthy.Count()))
	}
}

// build derives levels, masks and streams from a healthy-SM set. The
// stream table is mutated in place: levels and the index scratch reuse
// their buffers, and existing stream objects are retargeted via SetMask.
// Entries for levels dropped by a shrink stay in the map (their streams
// stay registered on the GPU so in-flight kernels finish) but are
// unreachable through Stream, whose lookups go through Quantize and the
// current level list.
//
//bullet:hotpath
func (m *Manager) build(healthy smmask.Mask) {
	avail := healthy.Count()
	if avail <= 0 {
		panic("resource: rebuild with no healthy SMs")
	}
	m.idx = healthy.AppendIndices(m.idx[:0])
	levels := m.levels[:0]
	for n := m.step; n < avail; n += m.step {
		levels = append(levels, n)
	}
	levels = append(levels, avail)

	for _, n := range levels {
		m.setStream(Prefill, n, maskOf(m.idx[:n]))
		m.setStream(Decode, n, maskOf(m.idx[avail-n:]))
	}
	m.healthy = healthy
	m.avail = avail
	m.levels = levels
}

// setStream reuses the stream object for a (phase, level) pair when one
// exists (retargeting its mask) and creates it otherwise.
//
//bullet:hotpath
func (m *Manager) setStream(p Phase, n int, mask smmask.Mask) {
	if st, ok := m.streams[p][n]; ok {
		st.SetMask(mask)
		return
	}
	//lint:ignore hotalloc the stream set is bounded by the level table; steady-state rebuilds retarget in place
	m.streams[p][n] = m.gpu.NewStream(mask)
}

// maskOf builds a mask from explicit SM indices.
func maskOf(idx []int) smmask.Mask {
	var m smmask.Mask
	for _, i := range idx {
		m.Set(i)
	}
	return m
}

// NumSMs returns the device SM count.
func (m *Manager) NumSMs() int { return m.numSMs }

// Avail returns the healthy SM count the current table draws from.
func (m *Manager) Avail() int { return m.avail }

// Rebuilds returns how many times the table was re-derived after health
// changes.
func (m *Manager) Rebuilds() int { return m.rebuilds }

// Step returns the allocation granularity.
func (m *Manager) Step() int { return m.step }

// Levels returns the available SM counts in ascending order.
func (m *Manager) Levels() []int { return append([]int(nil), m.levels...) }

// Quantize rounds an SM request to the nearest available level (at least
// the smallest level, at most the largest — the healthy SM count after a
// rebuild, the device size otherwise).
func (m *Manager) Quantize(sms int) int {
	if sms <= m.levels[0] {
		return m.levels[0]
	}
	if top := m.levels[len(m.levels)-1]; sms >= top {
		return top
	}
	// Open-coded sort.SearchInts: the closure it takes would allocate on
	// every per-cycle stream lookup.
	lo, hi0 := 0, len(m.levels)
	for lo < hi0 {
		mid := int(uint(lo+hi0) >> 1)
		if m.levels[mid] < sms {
			lo = mid + 1
		} else {
			hi0 = mid
		}
	}
	i := lo
	// m.levels[i] >= sms; pick the closer of levels[i-1] and levels[i].
	if i == 0 {
		return m.levels[0]
	}
	lo, hi := m.levels[i-1], m.levels[i]
	if sms-lo <= hi-sms {
		return lo
	}
	return hi
}

// Stream returns the pre-configured stream for a phase at a quantized SM
// count, recording the switch when the allocation changed. This is the
// "instant re-configuration" path: no masks are rebuilt.
//
//bullet:hotpath
func (m *Manager) Stream(p Phase, sms int) *gpusim.Stream {
	q := m.Quantize(sms)
	st, ok := m.streams[p][q]
	if !ok {
		panic(fmt.Sprintf("resource: no %v stream for %d SMs", p, q))
	}
	if m.current[p] != q {
		m.current[p] = q
		m.reconfigs++
		if m.TL != nil {
			m.TL.Instant("resource", "repartition", m.gpu.Sim().Now(),
				timeline.S("phase", p.String()),
				timeline.I("sms", q))
		}
	}
	return st
}

// Current returns the last SM count handed out for a phase.
func (m *Manager) Current(p Phase) int { return m.current[p] }

// Reconfigurations returns how many allocation switches occurred.
func (m *Manager) Reconfigurations() int { return m.reconfigs }

// Overlap returns the number of SMs shared between the current prefill
// and decode allocations, out of the healthy budget they draw from.
func (m *Manager) Overlap() int {
	p, d := m.current[Prefill], m.current[Decode]
	over := p + d - m.avail
	if over < 0 {
		return 0
	}
	return over
}
