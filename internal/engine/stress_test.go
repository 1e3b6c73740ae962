package engine

import (
	"fmt"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// Adversarial workload battery: shapes designed to break scheduling
// invariants — thundering herds, degenerate token counts, extreme skew,
// cache-filling giants. Every scenario must complete all requests with
// valid timelines and a drained KV pool (the rig checks the pool).

type scenario struct {
	name string
	reqs func() []workload.Request
}

func stressScenarios() []scenario {
	mk := func(id string, at units.Seconds, in, out int) workload.Request {
		return workload.Request{ID: id, Arrival: at, InputTokens: in, OutputTokens: out, Dataset: "azure-code"}
	}
	return []scenario{
		{"thundering-herd", func() []workload.Request {
			var rs []workload.Request
			for i := 0; i < 60; i++ {
				rs = append(rs, mk(fmt.Sprintf("h%d", i), 0.001, 512, 8))
			}
			return rs
		}},
		{"all-single-token-outputs", func() []workload.Request {
			var rs []workload.Request
			for i := 0; i < 30; i++ {
				rs = append(rs, mk(fmt.Sprintf("s%d", i), units.Seconds(0.001+float64(i)*0.01), 1024, 1))
			}
			return rs
		}},
		{"tiny-inputs-long-outputs", func() []workload.Request {
			var rs []workload.Request
			for i := 0; i < 20; i++ {
				rs = append(rs, mk(fmt.Sprintf("t%d", i), units.Seconds(0.001+float64(i)*0.05), 1, 300))
			}
			return rs
		}},
		{"one-giant-among-mice", func() []workload.Request {
			rs := []workload.Request{mk("giant", 0.001, 24000, 64)}
			for i := 0; i < 25; i++ {
				rs = append(rs, mk(fmt.Sprintf("m%d", i), units.Seconds(0.002+float64(i)*0.02), 64, 16))
			}
			return rs
		}},
		{"alternating-extremes", func() []workload.Request {
			var rs []workload.Request
			for i := 0; i < 20; i++ {
				if i%2 == 0 {
					rs = append(rs, mk(fmt.Sprintf("a%d", i), units.Seconds(0.001+float64(i)*0.1), 16000, 2))
				} else {
					rs = append(rs, mk(fmt.Sprintf("a%d", i), units.Seconds(0.001+float64(i)*0.1), 2, 200))
				}
			}
			return rs
		}},
		{"sustained-overload", func() []workload.Request {
			// 40 big prompts in 2 seconds: far beyond capacity.
			var rs []workload.Request
			for i := 0; i < 40; i++ {
				rs = append(rs, mk(fmt.Sprintf("o%d", i), units.Seconds(0.001+float64(i)*0.05), 8000, 8))
			}
			return rs
		}},
	}
}

func TestStressBattery(t *testing.T) {
	for _, sc := range stressScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			r := defaultRig(t)
			reqs := sc.reqs()
			for _, rq := range reqs {
				rq := rq
				r.env.Sim.Post(rq.Arrival, func() { r.prefill.Submit(rq) })
			}
			r.env.Sim.RunAll(1 << 26)
			done := r.env.Completed()
			if len(done) != len(reqs) {
				t.Fatalf("completed %d/%d", len(done), len(reqs))
			}
			for _, m := range done {
				m.Validate()
			}
			if r.env.KV.UsedBlocks() != 0 {
				t.Fatalf("leaked %d KV blocks", r.env.KV.UsedBlocks())
			}
			r.env.KV.CheckInvariants()
		})
	}
}

// TestStressBatteryAblations runs the battery against the ablation
// configurations, which disable the guard rails (reordering, pausing,
// SLO admission) — structural invariants must hold regardless.
func TestStressBatteryAblations(t *testing.T) {
	configs := []struct {
		name string
		pc   func() PrefillConfig
		dc   func() DecodeConfig
	}{
		{"naive", func() PrefillConfig {
			p := DefaultPrefillConfig()
			p.Reorder, p.SLOAdmission, p.FixedSMs = false, false, 108
			return p
		}, func() DecodeConfig {
			d := DefaultDecodeConfig()
			d.FixedSMs, d.AllowPause = 108, false
			return d
		}},
		{"tight-batches", func() PrefillConfig {
			p := DefaultPrefillConfig()
			p.MaxBatchReqs, p.MaxBatchTokens = 1, 24064
			return p
		}, func() DecodeConfig {
			d := DefaultDecodeConfig()
			d.MaxBatch = 4
			return d
		}},
	}
	for _, cfg := range configs {
		for _, sc := range stressScenarios() {
			cfg, sc := cfg, sc
			t.Run(cfg.name+"/"+sc.name, func(t *testing.T) {
				r := newRig(t, cfg.pc(), cfg.dc())
				reqs := sc.reqs()
				for _, rq := range reqs {
					rq := rq
					r.env.Sim.Post(rq.Arrival, func() { r.prefill.Submit(rq) })
				}
				r.env.Sim.RunAll(1 << 26)
				if got := len(r.env.Completed()); got != len(reqs) {
					t.Fatalf("completed %d/%d", got, len(reqs))
				}
				if r.env.KV.UsedBlocks() != 0 {
					t.Fatalf("leaked %d KV blocks", r.env.KV.UsedBlocks())
				}
			})
		}
	}
}
