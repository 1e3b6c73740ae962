// Package core assembles Bullet, the paper's serving system: the
// performance estimator (§3.2), SLO-aware scheduler (§3.3), computational
// resource manager (§3.4) and concurrent execution engines (§3.5), wired
// over the simulated GPU substrate.
//
// The same assembly, with components disabled, provides the ablation
// variants of §4.5.1 (Naive / w-Partition / w-Scheduler) and the
// fixed-SM-quota configurations used for the Fig. 13 sensitivity study and
// as the MuxServe-style static-spatial-sharing baseline.
package core

import (
	"fmt"

	"repro/internal/calib"
	"repro/internal/engine"
	"repro/internal/estimator"
	"repro/internal/forkjoin"
	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/prefixcache"
	"repro/internal/pressure"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// Mode selects which Bullet components are active.
type Mode string

const (
	// ModeFull is the complete system.
	ModeFull Mode = "bullet"
	// ModeNaive co-executes prefill and decode on the full GPU with no
	// provisioning or scheduling.
	ModeNaive Mode = "bullet-naive"
	// ModePartitionOnly enables dynamic SM provisioning but neither
	// request reordering nor delayed decode.
	ModePartitionOnly Mode = "bullet-partition"
	// ModeSchedulerOnly enables reordering and delayed decode but keeps
	// both phases on full-GPU masks.
	ModeSchedulerOnly Mode = "bullet-scheduler"
	// ModeStatic uses fixed SM quotas for both phases (MuxServe-style
	// spatial sharing; also the Fig. 13 sensitivity configuration).
	ModeStatic Mode = "bullet-static"
)

// Options configures a Bullet instance.
type Options struct {
	Mode Mode
	// SMStep is the resource manager granularity (paper: 6).
	SMStep int
	// LayerGroup is layers per prefill scheduling cycle (paper: 1).
	LayerGroup int
	// FixedPrefillSMs applies in ModeStatic; decode keeps the full
	// device, matching the Fig. 13 setup.
	FixedPrefillSMs int
	// Params are the estimator's fitted parameters; zero means the
	// cached profile for the (model, device) pair is used.
	Params estimator.Params
	// MetadataLatency models the inter-engine metadata path (Table 3).
	MetadataLatency sim.Time
	// EnablePrefixCache turns on RadixAttention-style shared-prefix
	// reuse in the prefill engine (an extension beyond the paper).
	EnablePrefixCache bool
	// Pressure, when non-nil, arms the memory-pressure subsystem
	// (watermark admission, decode preemption, recompute/retransfer
	// recovery — see internal/pressure and enablePressure).
	Pressure *pressure.Config
	// QoS arms the SLO-feedback dynamic-batching and multi-tenant QoS
	// subsystem (see internal/qos and enableQoS).
	QoS bool
	// Backend selects the gpusim per-kernel latency model: "" or
	// "analytic" (the default fluid model), "sampled" (profile-driven
	// draws from a self-calibrated latency table) or "hierarchy"
	// (analytic plus L2 cache-reuse interference). See DESIGN.md §15.
	Backend string
	// BackendSeed seeds the sampled backend's deterministic draw stream
	// (0 means 1). Cluster replicas derive per-replica seeds so serial
	// and parallel harnesses observe identical draws.
	BackendSeed int64
}

// DefaultOptions returns the full system's defaults.
func DefaultOptions() Options {
	return Options{
		Mode:            ModeFull,
		SMStep:          6,
		LayerGroup:      1,
		MetadataLatency: 0.21e-3,
	}
}

// Bullet is the assembled serving system; it implements serving.System.
type Bullet struct {
	env *serving.Env

	Estimator *estimator.Estimator
	Scheduler *sched.Scheduler
	Resources *resource.Manager
	Buffer    *engine.Buffer
	Prefill   *engine.PrefillEngine
	Decode    *engine.DecodeEngine

	// PrefixCache is non-nil when EnablePrefixCache is set.
	PrefixCache *prefixcache.Cache
	// faults is non-nil once EnableResilience/AttachFaults armed the
	// watchdog and fault bookkeeping (see faults.go).
	faults *faultState
	// pressure is non-nil when New armed the memory-pressure subsystem
	// (see pressure.go).
	pressure *pressure.Controller
	// qos is non-nil when New armed the SLO-feedback QoS subsystem (see
	// qos.go).
	qos *qos.Controller
	// tl is the observability recorder attached by AttachTimeline; nil
	// (the default) keeps every emission site on its no-op fast path.
	tl   *timeline.Recorder
	name string
}

// fittedParams memoizes offline profiling per (model, device). Profiling
// is deterministic in the pair, so the memo satisfies the forkjoin purity
// contract and concurrent fork tasks observe identical parameters.
var fittedParams forkjoin.Memo[string, estimator.Params]

// FittedParams returns profile-fitted estimator parameters for a pair,
// running the offline profiling once per process.
func FittedParams(cfg model.Config, spec gpusim.Spec) estimator.Params {
	key := cfg.Name + "/" + spec.Name
	return fittedParams.Get(key, func() estimator.Params {
		_, rep := estimator.Profile(cfg, spec, estimator.QuickProfileOptions(spec))
		return rep.Params
	})
}

// fittedTables memoizes self-calibration per (model, device) pair, the
// same purity argument as fittedParams: calibration is deterministic in
// the pair, so concurrent fork tasks observe identical tables.
var fittedTables forkjoin.Memo[string, *gpusim.LatencyTable]

// FittedLatencyTable returns the self-calibrated sampled-backend latency
// table for a (model, device) pair, running calibration once per process.
func FittedLatencyTable(cfg model.Config, spec gpusim.Spec) *gpusim.LatencyTable {
	key := cfg.Name + "/" + spec.Name
	return fittedTables.Get(key, func() *gpusim.LatencyTable {
		t, err := calib.SelfCalibrate(cfg, spec)
		if err != nil {
			panic(fmt.Sprintf("core: self-calibration for %s: %v", key, err))
		}
		return t
	})
}

// applyBackend installs the configured latency backend on the
// environment's GPU and returns the name suffix identifying non-default
// backends in results.
func applyBackend(env *serving.Env, opts Options) string {
	switch opts.Backend {
	case "", gpusim.BackendAnalytic:
		return ""
	case gpusim.BackendSampled:
		seed := opts.BackendSeed
		if seed == 0 {
			seed = 1
		}
		table := FittedLatencyTable(env.Model, env.GPU.Spec)
		env.GPU.SetBackend(gpusim.NewSampledBackend(table, seed))
		return "+sampled"
	case gpusim.BackendHierarchy:
		env.GPU.SetBackend(gpusim.HierarchyBackend{})
		return "+hierarchy"
	default:
		panic(fmt.Sprintf("core: unknown latency backend %q", opts.Backend))
	}
}

// New assembles a Bullet system on an environment.
func New(env *serving.Env, opts Options) *Bullet {
	def := DefaultOptions()
	if opts.Mode == "" {
		opts.Mode = def.Mode
	}
	if opts.SMStep == 0 {
		opts.SMStep = def.SMStep
	}
	if opts.LayerGroup == 0 {
		opts.LayerGroup = def.LayerGroup
	}
	if opts.MetadataLatency == 0 {
		opts.MetadataLatency = def.MetadataLatency
	}
	if opts.Params == (estimator.Params{}) {
		opts.Params = FittedParams(env.Model, env.GPU.Spec)
	}
	backendSuffix := applyBackend(env, opts)

	numSMs := env.GPU.Spec.NumSMs
	est := estimator.New(env.Model, env.GPU.Spec, opts.Params)
	res := resource.NewManager(env.GPU, opts.SMStep)
	schd := sched.New(est, env.SLO, sched.Config{
		TotalLayers: env.Model.NumLayers,
		LayerGroup:  opts.LayerGroup,
		NumSMs:      numSMs,
		Levels:      res.Levels(),
	})
	buf := engine.NewBuffer(env.Sim, opts.MetadataLatency)

	pcfg := engine.DefaultPrefillConfig()
	pcfg.LayerGroup = opts.LayerGroup
	dcfg := engine.DefaultDecodeConfig()

	name := string(opts.Mode)
	switch opts.Mode {
	case ModeFull:
		// defaults already enable everything
	case ModeNaive:
		pcfg.Reorder = false
		pcfg.SLOAdmission = false
		pcfg.FixedSMs = numSMs
		dcfg.FixedSMs = numSMs
		dcfg.AllowPause = false
	case ModePartitionOnly:
		pcfg.Reorder = false
		pcfg.SLOAdmission = false
		dcfg.AllowPause = false
	case ModeSchedulerOnly:
		pcfg.FixedSMs = numSMs
		dcfg.FixedSMs = numSMs
	case ModeStatic:
		if opts.FixedPrefillSMs <= 0 {
			panic("core: ModeStatic requires FixedPrefillSMs")
		}
		pcfg.FixedSMs = opts.FixedPrefillSMs
		dcfg.FixedSMs = numSMs
		dcfg.AllowPause = false
		name = fmt.Sprintf("bullet-sm%d", opts.FixedPrefillSMs)
	default:
		panic(fmt.Sprintf("core: unknown mode %q", opts.Mode))
	}

	b := &Bullet{
		env: env, Estimator: est, Scheduler: schd,
		Resources: res, Buffer: buf, name: name + backendSuffix,
	}
	b.Prefill = engine.NewPrefillEngine(env, res, schd, est, buf, pcfg)
	b.Decode = engine.NewDecodeEngine(env, res, schd, est, buf, dcfg)
	b.Prefill.SetDecode(b.Decode)
	if opts.EnablePrefixCache {
		b.PrefixCache = prefixcache.New(env.KV)
		b.Prefill.SetPrefixCache(b.PrefixCache)
		env.OnDrain = b.PrefixCache.EvictAll
		b.name += "+prefix"
	}
	if opts.Pressure != nil {
		b.enablePressure(*opts.Pressure)
	}
	if opts.QoS {
		b.enableQoS(dcfg.MaxBatch, pcfg.MaxBatchTokens)
	}
	return b
}

// AttachTimeline threads one observability recorder through every layer
// of the system: GPU kernel spans, resource repartitions, engine batch
// and request lifecycle spans, and (via faults.go) watchdog instants.
// Attaching nil detaches — every site returns to its no-op fast path.
func (b *Bullet) AttachTimeline(rec *timeline.Recorder) {
	b.tl = rec
	b.env.GPU.TL = rec
	b.Resources.TL = rec
	b.Prefill.TL = rec
	b.Decode.TL = rec
	if b.pressure != nil {
		b.pressure.SetTimeline(rec)
	}
	if b.qos != nil {
		b.qos.SetTimeline(rec)
	}
}

// Name identifies the system variant in results.
func (b *Bullet) Name() string { return b.name }

// Submit implements serving.System.
func (b *Bullet) Submit(r workload.Request) { b.Prefill.Submit(r) }

// ExtractWaiting drains the prefill waiting queue and returns the
// requests, which hold no KV yet; the cluster drain protocol hands
// them to a healthy replica.
func (b *Bullet) ExtractWaiting() []workload.Request { return b.Prefill.ExtractWaiting() }

// RunTrace is a convenience wrapper over the serving harness.
func (b *Bullet) RunTrace(trace *workload.Trace) serving.Result {
	return b.env.Run(b, trace)
}
