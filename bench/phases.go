package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/timeline"
	"repro/internal/workload"
)

const (
	// The timed phase times setupsFirst round set-ups before its first
	// round and setupsPerRound after each round, so the set-up median
	// spans the run as the round walls do. Each set-up starts right after
	// a forced GC: otherwise the GC debt of earlier work dominates it.
	setupsFirst    = 5
	setupsPerRound = 3
	// profileHz asks for more samples than Go's default 100 Hz. The
	// kernel may deliver fewer, so the phase also runs until the process
	// has used profileCPU.
	profileHz = 1000
	// tracedCap bounds the traced trace: a recorded ShareGPT request
	// holds about 1,100 events and 0.7 KB of heap per event.
	tracedCap = 250
)

// options control one run of one workload.
type options struct {
	seed int64
	// seconds is the timed phase's wall budget; the profiled phase gets
	// half of it. With trace 1 the timed phase runs a single round, which
	// is all the runtime counters and the profile's baseline need.
	seconds float64
	// trace selects the phases and the metrics reported: 0 runs the
	// timed phase for the end-to-end metrics, 1 runs every phase for the
	// per-layer metrics, -1 runs every phase and reports both sets.
	trace int
	out   string // directory for the trace and profile; "" writes none
	n     int    // requests per trace; 0 keeps the workload's size
	// minRounds are run even past the budget.
	minRounds int
	// profile enables the profiled phase, which runs until the process
	// has used at least profileCPU, so it collects enough samples.
	profile    bool
	profileCPU time.Duration
	log        io.Writer // human-readable report
}

func (o options) requests(w *spec) int {
	if o.n > 0 {
		return o.n
	}
	return w.n
}

// report is the outcome of one workload: its metric values and the
// correctness verdict.
type report struct {
	workload string
	values   map[string]float64
	sent     int
	lost     int
	problems []string
}

func (r *report) correct() bool { return len(r.problems) == 0 }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// bench runs the phases o.trace selects for one workload, then holds
// the workload's reference run to golden.json. The reference run comes
// last so that the timed phase's first set-up still pays for the work
// the simulator memoizes once per process.
func (w *spec) bench(o options) *report {
	rep := &report{workload: w.name, values: map[string]float64{}}
	chk := &checker{rep: rep}
	timed := o
	if o.trace == 1 {
		timed.seconds, timed.minRounds = 0, 1
	}
	timedMedian := w.timed(timed, chk)
	if o.trace != 0 {
		if o.profile {
			w.profiled(o, chk, timedMedian)
		}
		w.traced(o, rep)
	}
	w.checkGolden(rep)
	return rep
}

// roundRun is one round: its traces, their outcomes and its timings.
type roundRun struct {
	traces []*workload.Trace
	outs   []outcome
	wall   time.Duration
}

// round sets up and runs the workload's traces back to back.
func (w *spec) round(seed int64, n int, l *spanLog) roundRun {
	var r roundRun
	top := l.begin("round")
	for i := 0; i < w.traces; i++ {
		in, _ := w.setup(seed+int64(i), n, 0, l)
		o, _ := in.run(l)
		r.traces = append(r.traces, in.trace)
		r.outs = append(r.outs, o)
	}
	r.wall = l.end(top)
	return r
}

// checker holds a workload's rounds to the correctness gate: every
// request of every round completes or sheds exactly once, and every
// round reproduces the first round's output digests.
type checker struct {
	rep     *report
	digests []uint64
}

func (c *checker) check(r roundRun) {
	for i, o := range r.outs {
		c.rep.sent += len(r.traces[i].Requests)
		if n, why := lost(r.traces[i], o); n > 0 {
			c.rep.lost += n
			c.rep.problem("%s: %d requests lost (%s)", c.rep.workload, n, why)
		}
		d := digest(o)
		if i == len(c.digests) {
			c.digests = append(c.digests, d)
		} else if d != c.digests[i] {
			c.rep.problem("%s: seed %d output digest %016x differs from the first round's %016x",
				c.rep.workload, r.traces[i].Seed, d, c.digests[i])
		}
	}
}

// runtimeReading is a snapshot of the Go runtime's allocation and GC
// accounting.
type runtimeReading struct {
	gcCycles, allocBytes, heapBytes uint64
	gcCPU, totalCPU, idleCPU        float64
}

func readRuntime() runtimeReading {
	s := []rtmetrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeReading{
		gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), heapBytes: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), totalCPU: s[4].Value.Float64(), idleCPU: s[5].Value.Float64(),
	}
}

// timed runs rounds back to back with tracing off until the budget is
// spent, and returns the median round wall time. It sets the end-to-end
// metrics and the runtime's allocation and GC metrics.
func (w *spec) timed(o options, chk *checker) time.Duration {
	rep := chk.rep
	budget := time.Duration(o.seconds * float64(time.Second))
	n := o.requests(w)
	l := newSpanLog()
	var setups []time.Duration
	sampleSetups := func(k int) {
		for i := 0; i < k; i++ {
			var total time.Duration
			for t := 0; t < w.traces; t++ {
				runtime.GC()
				_, d := w.setup(o.seed+int64(t), n, 0, l)
				total += d
			}
			setups = append(setups, total)
		}
	}
	sampleSetups(setupsFirst)

	var walls []time.Duration
	var heapLive, allocBytes, gcCycles uint64
	var sim simOutputs
	runtime.GC()
	first := readRuntime()
	start := time.Now()
	for len(walls) < o.minRounds || time.Since(start) < budget {
		before := readRuntime()
		r := w.round(o.seed, n, l)
		after := readRuntime()
		walls = append(walls, r.wall)
		allocBytes += after.allocBytes - before.allocBytes
		gcCycles += after.gcCycles - before.gcCycles

		id := l.begin("check")
		chk.check(r)
		if len(walls) == 1 {
			sim = summarize(w, r.traces, r.outs)
		}
		l.end(id)
		// Live heap while the round's results are still held.
		runtime.GC()
		heapLive = max(heapLive, readRuntime().heapBytes)
		runtime.KeepAlive(r)
		sampleSetups(setupsPerRound)
	}
	last := readRuntime()

	perRound := w.traces * n
	req := float64(len(walls) * perRound)
	med := median(walls)
	rep.values["sim_req_per_s"] = float64(perRound) / med.Seconds()
	rep.values["setup_s"] = median(setups).Seconds()
	rep.values["heap_live_mb"] = float64(heapLive) / 1e6
	rep.values["sim_goodput_rps"] = sim.goodput
	rep.values["sim_slo_attainment"] = sim.slo
	rep.values["sim_ttft_p50_s"] = sim.ttftP50
	rep.values["sim_ttft_p99_s"] = sim.ttftP99
	rep.values["sim_tpot_p99_ms"] = sim.tpotP99Ms
	rep.values["runtime.alloc_kb_per_req"] = float64(allocBytes) / 1024 / req
	rep.values["runtime.gc_cycles_per_kreq"] = float64(gcCycles) * 1000 / req
	if used := (last.totalCPU - first.totalCPU) - (last.idleCPU - first.idleCPU); used > 0 {
		rep.values["runtime.gc_cpu_frac"] = (last.gcCPU - first.gcCPU) / used
	}

	fmt.Fprintf(o.log, "timed phase: %d rounds of %d traces x %d requests; round wall median %.3fs, IQR %.1f%% of median\n",
		len(walls), w.traces, n, med.Seconds(), 100*iqr(walls)/med.Seconds())
	fmt.Fprintf(o.log, "  requests per round: sent %d, completed %d, shed %d\n", sim.sent, sim.completed, sim.shed)
	fmt.Fprintf(o.log, "  set-up: first %.3fms, median %.3fms over %d samples\n",
		1000*setups[0].Seconds(), 1000*median(setups).Seconds(), len(setups))
	printSpans(o.log, l)
	return med
}

// profiled repeats the rounds under the CPU profiler and charges the
// process's CPU time to simulator modules in proportion to their
// samples. The kernel may deliver fewer profiling signals than asked
// for, so time comes from the process's CPU clock, not the sample count.
func (w *spec) profiled(o options, chk *checker, timedMedian time.Duration) {
	rep := chk.rep
	budget := time.Duration(o.seconds * float64(time.Second) / 2)
	n := o.requests(w)
	l := newSpanLog()
	var buf bytes.Buffer
	// StartCPUProfile keeps a rate set beforehand (and warns on stderr
	// that it cannot apply its own 100 Hz).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		rep.problem("%s: cpu profile: %v", w.name, err)
		return
	}
	var walls []time.Duration
	start, cpu0 := time.Now(), cpuTime()
	for len(walls) == 0 || time.Since(start) < budget || cpuTime()-cpu0 < o.profileCPU {
		r := w.round(o.seed, n, l)
		walls = append(walls, r.wall)
		chk.check(r)
	}
	pprof.StopCPUProfile()
	cpu := cpuTime() - cpu0

	a, err := attribute(buf.Bytes())
	if err != nil {
		rep.problem("%s: %v", w.name, err)
		return
	}
	req := float64(len(walls) * w.traces * n)
	for _, m := range modules {
		rep.values[m+".self_us_per_req"] = a.share(m) * cpu.Seconds() * 1e6 / req
	}
	rep.values["profile.samples"] = float64(a.samples)
	rep.values["profile.overhead_frac"] = median(walls).Seconds()/timedMedian.Seconds() - 1
	fmt.Fprintf(o.log, "profiled phase: %d rounds, %d samples, %.1fs of CPU\n", len(walls), a.samples, cpu.Seconds())
	writeArtifact(o, rep, w.name+".cpu.pprof", func(f io.Writer) error {
		_, err := f.Write(buf.Bytes())
		return err
	})
}

// cpuTime is the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traced runs one trace, capped at tracedCap requests, untraced and then
// with a timeline recorder attached, and turns the recorded events into
// per-request work counters.
func (w *spec) traced(o options, rep *report) {
	n := min(o.requests(w), tracedCap)
	l := newTraceLog()
	// A recorder forces a cluster to advance its replicas serially, so the
	// untraced twin runs serially too and the difference is tracing alone.
	twin, _ := w.setup(o.seed, n, 1, l)
	_, plain := twin.run(l)

	in, _ := w.setup(o.seed, n, 1, l)
	rec := timeline.New(0)
	in.attach(rec)
	out, recorded := in.run(l)
	rep.sent += n
	if k, why := lost(in.trace, out); k > 0 {
		rep.lost += k
		rep.problem("%s: traced run lost %d requests (%s)", w.name, k, why)
	}
	if d := rec.Dropped(); d > 0 {
		rep.problem("%s: timeline dropped %d events past its cap", w.name, d)
	}

	events := rec.Events()
	c := countEvents(events)
	perReq := func(x float64) float64 { return x / float64(n) }
	v := rep.values
	v["sim.events_per_req"] = perReq(float64(in.env.Sim.Processed()))
	v["gpusim.kernels_per_req"] = perReq(float64(c.kernels))
	rerates := c.count("gpu", "occupancy")
	v["gpusim.rerates_per_req"] = perReq(float64(rerates))
	if rerates > 0 {
		v["gpusim.resident_per_rerate"] = float64(c.resident) / float64(rerates)
	}
	v["sched.decisions_per_req"] = perReq(float64(c.decisions))
	v["engine.prefill_batches_per_req"] = perReq(float64(len(c.waiting)))
	v["engine.decode_steps_per_req"] = perReq(float64(c.count("decode", "step")))
	v["engine.waiting_per_batch_p50"] = median(c.waiting)
	v["engine.queue_wait_p50_s"] = median(c.queueWait)
	v["resource.repartitions_per_req"] = perReq(float64(c.count("resource", "repartition")))
	v["timeline.events_per_req"] = perReq(float64(rec.Len()))
	v["timeline.overhead_frac"] = recorded.Seconds()/plain.Seconds() - 1
	v["resilience.sheds_per_req"] = perReq(float64(in.env.ShedCount()))
	if in.cl == nil {
		kv := in.env.KV
		v["kvcache.peak_occupancy"] = float64(kv.PeakUsedBlocks()) / float64(kv.TotalBlocks())
	} else {
		// The cluster's replicas run on private clocks the bench cannot
		// reach; the outer clock it drives carries the router's events.
		v["cluster.router_events_per_req"] = v["sim.events_per_req"]
		res := in.cl.Resilience()
		v["resilience.dispatch_timeouts_per_req"] = perReq(float64(c.count("router", "dispatch-timeout")))
		v["resilience.hedges_per_req"] = perReq(float64(c.count("router", "hedge")))
		v["resilience.retries_per_req"] = perReq(float64(res.Retried))
		v["resilience.breaker_opens"] = float64(res.BreakerOpens)
	}
	if in.inj != nil {
		v["faults.injected"] = float64(in.inj.Injected())
	}

	fmt.Fprintf(o.log, "traced phase: %d requests, %d events (%d dropped), wall %.3fs traced vs %.3fs untraced\n",
		n, rec.Len(), rec.Dropped(), recorded.Seconds(), plain.Seconds())
	for _, k := range c.keys() {
		fmt.Fprintf(o.log, "  %-32s %9d events\n", k, c.byKey[k])
	}
	writeArtifact(o, rep, w.name+".trace.json", func(f io.Writer) error {
		return timeline.WriteChrome(f, append(events, l.events()...))
	})
}

// eventCounts are the traced run's events counted by lane and name,
// plus the sums and distributions that need an event's arguments.
type eventCounts struct {
	byKey     map[string]int // "lane/name"; every streamNN lane counts as "stream*"
	kernels   int
	decisions int       // Algorithm-1 branch instants
	resident  int64     // resident kernels summed over re-rates
	waiting   []float64 // queue depth at each prefill batch start
	queueWait []float64 // seconds each request waited for prefill
}

func countEvents(events []timeline.Event) eventCounts {
	c := eventCounts{byKey: map[string]int{}}
	for i := range events {
		e := &events[i]
		lane := e.Lane
		if strings.HasPrefix(lane, "stream") {
			lane = "stream*"
			c.kernels++
		}
		c.byKey[lane+"/"+e.Name]++
		switch {
		case lane == "gpu" && e.Name == "occupancy":
			c.resident += intArg(e, "resident")
		case lane == "sched" && e.Kind == timeline.KindInstant:
			c.decisions++
		case lane == "prefill" && e.Name == "batch-start":
			c.waiting = append(c.waiting, float64(intArg(e, "waiting")))
		case lane == "requests" && e.Name == "queued":
			c.queueWait = append(c.queueWait, e.Duration().Float())
		}
	}
	return c
}

func (c eventCounts) count(lane, name string) int { return c.byKey[lane+"/"+name] }

func (c eventCounts) keys() []string {
	keys := make([]string, 0, len(c.byKey))
	for k := range c.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func intArg(e *timeline.Event, key string) int64 {
	for _, a := range e.Args {
		if a.Key == key && a.Kind == timeline.ArgInt {
			return a.I
		}
	}
	return 0
}

// writeArtifact writes one output file under o.out.
func writeArtifact(o options, rep *report, name string, write func(io.Writer) error) {
	if o.out == "" {
		return
	}
	path := filepath.Join(o.out, name)
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		rep.problem("%s: writing %s: %v", rep.workload, path, err)
		return
	}
	fmt.Fprintf(o.log, "  wrote %s\n", path)
}

func printSpans(w io.Writer, l *spanLog) {
	fmt.Fprintf(w, "  %-22s %7s %10s %10s\n", "bench span", "count", "total(s)", "self(s)")
	for _, s := range l.stats() {
		fmt.Fprintf(w, "  %-22s %7d %10.3f %10.3f\n", s.name, s.count, s.total.Seconds(), s.self.Seconds())
	}
}

// median returns the middle value of x, or the mean of the two middle
// values; 0 when x is empty.
func median[T ~int64 | ~float64](x []T) T {
	s := slices.Clone(x)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// iqr is the distance between the first and third quartiles, in
// seconds, with quartiles interpolated the way Python's
// statistics.quantiles(n=4) does by default.
func iqr(d []time.Duration) float64 {
	s := make([]float64, len(d))
	for i, x := range d {
		s[i] = x.Seconds()
	}
	slices.Sort(s)
	if len(s) < 2 {
		return 0
	}
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		switch {
		case pos <= 0:
			return s[0]
		case pos >= float64(len(s)-1):
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return q(0.75) - q(0.25)
}
