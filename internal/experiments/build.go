package experiments

import (
	"fmt"
	"slices"

	"repro/internal/baselines/chunked"
	"repro/internal/baselines/disagg"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pressure"
	"repro/internal/resilience"
	"repro/internal/resource"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// Spec describes one deployment: a named serving system on a device and
// model, optionally on a non-default latency backend, sharded over
// replicas and given a fault schedule. The load is not part of it:
// Deployment.Run takes the trace, so the arms of a study share one.
type Spec struct {
	// System is a baseline (see baselines) or a Bullet variant (see
	// bulletOptions): the ablations, a static split "bullet-sm<N>" with
	// N one of the device's SM levels, and the prefix-cache, pressure
	// and QoS extensions.
	System  string
	Dataset workload.Dataset
	// Device and Model default to Platform()'s when zero.
	Device gpusim.Spec
	Model  model.Config
	// Backend and BackendSeed pick a Bullet variant's per-kernel latency
	// model (DESIGN.md §15); "" is analytic.
	Backend     string
	BackendSeed int64
	// Replicas > 1 shards a Bullet variant over a cluster routed by
	// Policy, advanced at fork/join width Workers, with the router-tier
	// protections of Resilience when non-nil (DESIGN.md §16).
	Replicas   int
	Policy     cluster.Policy
	Workers    int
	Resilience *resilience.Config
	// Faults, when non-nil, is injected into a Bullet variant's run:
	// device faults on one instance, every kind on a cluster.
	Faults *faults.Schedule
}

// Deployment is a built Spec, ready to serve one trace.
type Deployment struct {
	Env    *serving.Env
	System serving.System
	// Bullet is a single-replica Bullet variant, Cluster a sharded one;
	// both are nil for a baseline.
	Bullet  *core.Bullet
	Cluster *cluster.Cluster
	// Injector replays Spec.Faults; nil without faults.
	Injector *faults.Injector
}

// bulletOptions resolves a Bullet variant name to its core options;
// false means the name is not a Bullet variant (a baseline or unknown).
// "bullet-gate" arms the pressure admission gate alone,
// "bullet-pressure" adds decode preemption and "bullet-qos" the
// SLO-feedback QoS controller.
func bulletOptions(name string) (core.Options, bool) {
	switch name {
	case "bullet":
		return core.Options{Mode: core.ModeFull}, true
	case "bullet-naive":
		return core.Options{Mode: core.ModeNaive}, true
	case "bullet-partition":
		return core.Options{Mode: core.ModePartitionOnly}, true
	case "bullet-scheduler":
		return core.Options{Mode: core.ModeSchedulerOnly}, true
	case "bullet-prefix":
		return core.Options{Mode: core.ModeFull, EnablePrefixCache: true}, true
	case "bullet-gate":
		return core.Options{Mode: core.ModeFull,
			Pressure: &pressure.Config{DisablePreemption: true}}, true
	case "bullet-pressure":
		return core.Options{Mode: core.ModeFull, Pressure: &pressure.Config{}}, true
	case "bullet-qos":
		return core.Options{Mode: core.ModeFull, Pressure: &pressure.Config{}, QoS: true}, true
	}
	var sms int
	if n, err := fmt.Sscanf(name, "bullet-sm%d", &sms); err == nil && n == 1 && sms > 0 {
		return core.Options{Mode: core.ModeStatic, FixedPrefillSMs: sms}, true
	}
	return core.Options{}, false
}

// baselines builds each non-Bullet system on an environment.
var baselines = map[string]func(*serving.Env) serving.System{
	"vllm-1024":     func(env *serving.Env) serving.System { return chunked.New(env, chunked.VLLM1024()) },
	"sglang-1024":   func(env *serving.Env) serving.System { return chunked.New(env, chunked.SGLang1024()) },
	"sglang-2048":   func(env *serving.Env) serving.System { return chunked.New(env, chunked.SGLang2048()) },
	"nanoflow-1024": func(env *serving.Env) serving.System { return chunked.New(env, chunked.NanoFlow1024()) },
	"disagg-nvlink": func(env *serving.Env) serving.System { return disagg.New(env, disagg.DefaultConfig()) },
	"disagg-pcie":   func(env *serving.Env) serving.System { return disagg.New(env, disagg.PCIeConfig()) },
}

// Build makes the deployment a Spec describes, with its faults armed. It
// rejects, in this order: an unknown backend; a non-analytic backend on
// a name that is not a Bullet variant; an unknown name; faults or
// replicas on a baseline; and a static split off the device's SM levels.
func Build(s Spec) (*Deployment, error) {
	device, mc := Platform()
	if s.Device.Name != "" {
		device = s.Device
	}
	if s.Model.Name != "" {
		mc = s.Model
	}
	opts, isBullet := bulletOptions(s.System)
	newBaseline := baselines[s.System]
	levels := resource.SMLevels(nil, device.NumSMs, core.DefaultOptions().SMStep)
	switch {
	case !slices.Contains([]string{"", gpusim.BackendAnalytic, gpusim.BackendSampled, gpusim.BackendHierarchy}, s.Backend):
		return nil, fmt.Errorf("experiments: unknown backend %q (have analytic, sampled, hierarchy)", s.Backend)
	case !isBullet && s.Backend != "" && s.Backend != gpusim.BackendAnalytic:
		return nil, fmt.Errorf("experiments: backend %q requires a Bullet variant, got %q", s.Backend, s.System)
	case !isBullet && newBaseline == nil:
		return nil, fmt.Errorf("experiments: unknown system %q", s.System)
	case !isBullet && s.Faults != nil:
		return nil, fmt.Errorf("experiments: fault injection requires a Bullet variant, got %q", s.System)
	case !isBullet && s.Replicas > 1:
		return nil, fmt.Errorf("experiments: a %d-replica cluster requires a Bullet variant, got %q", s.Replicas, s.System)
	case opts.Mode == core.ModeStatic && !slices.Contains(levels, opts.FixedPrefillSMs):
		return nil, fmt.Errorf("experiments: system %q: %d SMs is not an SM level of the %s (levels %v)",
			s.System, opts.FixedPrefillSMs, device.Name, levels)
	}
	d := &Deployment{Env: serving.NewEnv(device, mc, s.Dataset.Name)}
	opts.Backend, opts.BackendSeed = s.Backend, s.BackendSeed
	switch {
	case !isBullet:
		d.System = newBaseline(d.Env)
	case s.Replicas > 1:
		d.Cluster = cluster.New(d.Env, cluster.Config{Replicas: s.Replicas, Policy: s.Policy,
			Options: opts, Workers: s.Workers, Resilience: s.Resilience})
		d.System = d.Cluster
	default:
		d.Bullet = core.New(d.Env, opts)
		d.System = d.Bullet
	}
	if s.Faults != nil {
		d.Injector = faults.NewInjector(d.Env.Sim, *s.Faults)
		if d.Cluster != nil {
			d.Cluster.AttachFaults(d.Injector, core.DefaultWatchdog())
		} else {
			d.Bullet.AttachFaults(d.Injector, core.DefaultWatchdog())
		}
		d.Injector.Arm()
	}
	return d, nil
}

// MustBuild is Build for the fixed specs of the registry's studies,
// where an error is a bug: it panics with the error.
func MustBuild(s Spec) *Deployment {
	d, err := Build(s)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// Run serves a trace to completion on the deployment. A deployment
// serves one trace; build another for the next.
func (d *Deployment) Run(trace *workload.Trace) serving.Result {
	return d.Env.Run(d.System, trace)
}

// Resilience returns the system's recovery accounting (a cluster's
// router and replicas, or one Bullet instance) plus the injector's
// counters: the faults that fired and the scheduled downtime.
func (d *Deployment) Resilience() metrics.Resilience {
	var rl metrics.Resilience
	switch {
	case d.Cluster != nil:
		rl = d.Cluster.Resilience()
	case d.Bullet != nil:
		rl = d.Bullet.Resilience()
	}
	if d.Injector != nil {
		rl.FaultsInjected = d.Injector.Injected()
		rl.Downtime = d.Injector.ScheduledDowntime()
	}
	return rl
}

// AttachTimeline attaches rec to the deployment. Bullet variants and
// clusters thread the recorder through every layer; chunked baselines
// add their hybrid-batch counters; every other system still gets
// GPU-level kernel spans and occupancy counters.
func (d *Deployment) AttachTimeline(rec *timeline.Recorder) {
	switch s := d.System.(type) {
	case *cluster.Cluster:
		s.AttachTimeline(rec)
	case *core.Bullet:
		s.AttachTimeline(rec)
	case *chunked.Engine:
		s.TL, d.Env.GPU.TL = rec, rec
	default:
		d.Env.GPU.TL = rec
	}
}
