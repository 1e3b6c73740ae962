package serving

import (
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// echoSystem completes each request after a fixed simulated delay.
type echoSystem struct {
	env   *Env
	delay sim.Time
	leak  bool // when set, allocate KV and never free it
	stall bool // when set, never complete anything
}

func (e *echoSystem) Name() string { return "echo" }

func (e *echoSystem) Submit(r workload.Request) {
	if e.stall {
		return
	}
	if e.leak {
		if _, err := e.env.KV.Allocate(r.ID, r.InputTokens, "echo"); err != nil {
			panic(err)
		}
	}
	e.env.Sim.PostAfter(e.delay, func() {
		now := e.env.Sim.Now()
		e.env.Complete(metrics.Request{
			ID: r.ID, Dataset: r.Dataset, Arrival: r.Arrival,
			PrefillStart: r.Arrival, FirstToken: now - e.delay/2, Finish: now,
			InputTokens: r.InputTokens, OutputTokens: r.OutputTokens,
		})
	})
}

func smallTrace(n int) *workload.Trace {
	return workload.Generate(workload.ShareGPT, 5, n, 1)
}

func TestNewEnvPlansKV(t *testing.T) {
	env := NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	if env.KV.TotalTokens() < 300000 {
		t.Fatalf("KV capacity = %d tokens, implausibly small", env.KV.TotalTokens())
	}
	if env.SLO != metrics.SLOFor("sharegpt") {
		t.Fatalf("SLO = %+v", env.SLO)
	}
}

func TestNewEnvRejectsOversizedModel(t *testing.T) {
	big := model.Llama31_8B()
	big.NumLayers = 400 // ~100B params: does not fit in 80 GB
	defer func() {
		if recover() == nil {
			t.Fatal("oversized model accepted")
		}
	}()
	NewEnv(gpusim.A100(), big, "sharegpt")
}

func TestRunCompletesTrace(t *testing.T) {
	env := NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	sys := &echoSystem{env: env, delay: 0.2}
	res := env.Run(sys, smallTrace(20))
	if res.Summary.Requests != 20 {
		t.Fatalf("completed %d", res.Summary.Requests)
	}
	if res.System != "echo" || res.Dataset != "sharegpt" {
		t.Fatalf("labels: %+v", res)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

func TestOnCompleteHook(t *testing.T) {
	env := NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	seen := 0
	env.OnComplete = func(metrics.Request) { seen++ }
	sys := &echoSystem{env: env, delay: 0.1}
	env.Run(sys, smallTrace(5))
	if seen != 5 {
		t.Fatalf("hook saw %d/5", seen)
	}
}

func TestDeadlockPanics(t *testing.T) {
	env := NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	sys := &echoSystem{env: env, delay: 0.1, stall: true}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("stalled system did not panic")
		}
		if !strings.Contains(r.(string), "deadlock") {
			t.Fatalf("panic = %v", r)
		}
	}()
	env.Run(sys, smallTrace(3))
}

func TestKVLeakPanics(t *testing.T) {
	env := NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	sys := &echoSystem{env: env, delay: 0.1, leak: true}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("leaking system did not panic")
		}
		if !strings.Contains(r.(string), "leaked") {
			t.Fatalf("panic = %v", r)
		}
	}()
	env.Run(sys, smallTrace(3))
}
