package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/units"
	"repro/internal/workload"
)

// tiny returns options for a smoke run of w: one timed round of about 40
// requests, profiling only outside -race and -short.
func tiny(w *spec, out string) options {
	return options{
		seed: 3, trace: -1, out: out, n: max(40/w.traces, 1), minRounds: 1,
		profile: !raceEnabled && !testing.Short(), profileCPU: 200 * time.Millisecond,
		log: io.Discard,
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check against
// the program.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if strings.Join(f.Command, " ") != "bash bench/run.sh" || strings.Join(f.Paths, ",") != "bench" ||
		f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("command %q, paths %q, run_seconds %d", f.Command, f.Paths, f.RunSeconds)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(set string, listed []metricDef, inFile map[string]string) {
		if len(listed) != len(inFile) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", set, len(inFile), len(listed))
		}
		for _, m := range listed {
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", set, m.name)
			}
			if unit, ok := inFile[m.name]; !ok || unit != m.unit {
				t.Errorf("%s: metric %s [%s] is listed in BENCHMARK.json as [%s] (present %v)",
					set, m.name, m.unit, unit, ok)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	layer := map[string]string{}
	for _, m := range f.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
}

// TestWorkloadsSmoke runs every workload at a tiny size through every
// phase and checks the verdict, that every metric is printed with its
// unit, and that the traced counters repeat exactly.
func TestWorkloadsSmoke(t *testing.T) {
	for i := range specs {
		w := &specs[i]
		t.Run(w.name, func(t *testing.T) {
			o := tiny(w, t.TempDir())
			var log bytes.Buffer
			o.log = &log
			rep := w.bench(o)
			if !rep.correct() || rep.lost != 0 || rep.sent == 0 {
				t.Fatalf("verdict: sent %d, lost %d, problems %q", rep.sent, rep.lost, rep.problems)
			}
			for _, m := range []string{"sim_req_per_s", "setup_s", "heap_live_mb", "sim_goodput_rps",
				"sim.events_per_req", "gpusim.kernels_per_req", "timeline.events_per_req"} {
				if v := rep.values[m]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}
			printReport(&log, rep, -1)
			for _, m := range reported(-1) {
				line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.name) + ` +\S+ ` + regexp.QuoteMeta(m.unit) + `$`)
				if !line.MatchString(log.String()) {
					t.Errorf("metric %s [%s] not printed", m.name, m.unit)
				}
			}
			if o.profile {
				var sum float64
				for _, m := range modules {
					sum += rep.values[m+".self_us_per_req"]
				}
				if !(sum > 0) || rep.values["profile.samples"] < 1 {
					t.Errorf("profiled phase: self time %v us/req over %v samples", sum, rep.values["profile.samples"])
				}
			}

			again := &report{workload: w.name, values: map[string]float64{}}
			o.out = ""
			w.traced(o, again)
			for _, m := range perLayer {
				if _, ok := again.values[m.name]; !ok || m.name == "timeline.overhead_frac" {
					continue
				}
				if a, b := rep.values[m.name], again.values[m.name]; math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("traced counter %s: %v then %v", m.name, a, b)
				}
			}
		})
	}
	if !testing.Short() {
		t.Run("cluster counters", func(t *testing.T) {
			w, err := specByName("cluster4-storm")
			if err != nil {
				t.Fatal(err)
			}
			rep := &report{workload: w.name, values: map[string]float64{}}
			o := tiny(w, "")
			o.n = 100
			w.traced(o, rep)
			for _, m := range []string{"cluster.router_events_per_req", "resilience.dispatch_timeouts_per_req",
				"resilience.retries_per_req", "faults.injected"} {
				if !(rep.values[m] > 0) {
					t.Errorf("%s = %v on the storm, want > 0", m, rep.values[m])
				}
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite golden.json from the reference runs")

// TestGolden holds every workload's reference run to golden.json; with
// -update it rewrites the file instead.
func TestGolden(t *testing.T) {
	if *update {
		runs := map[string]goldenRun{}
		for i := range specs {
			runs[specs[i].name], _, _ = specs[i].referenceRun()
		}
		b, err := json.MarshalIndent(runs, "", "  ")
		if err == nil {
			err = os.WriteFile("golden.json", append(b, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	for i := range specs {
		rep := &report{workload: specs[i].name}
		specs[i].checkGolden(rep)
		if !rep.correct() || rep.sent == 0 {
			t.Errorf("sent %d, problems %q", rep.sent, rep.problems)
		}
	}
}

// TestResultLine checks the final JSON line of a timed-phase run against
// BENCHMARK.json.
func TestResultLine(t *testing.T) {
	f := readBenchmarkFile(t)
	w, err := specByName("cluster4-healthy")
	if err != nil {
		t.Fatal(err)
	}
	o := tiny(w, "")
	o.trace = 0
	var stdout bytes.Buffer
	rep := w.bench(o)
	printReport(&stdout, rep, 0)
	line, ok, err := resultJSON([]*report{rep}, 0, false)
	if err != nil || !ok {
		t.Fatalf("verdict %v, err %v, problems %q", ok, err, rep.problems)
	}
	fmt.Fprintln(&stdout, line)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var verdict struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &verdict); err != nil {
		t.Fatal(err)
	}
	if !verdict.Correct || verdict.Attempted < 1 || verdict.Failed != 0 {
		t.Errorf("verdict %+v", verdict)
	}
	if len(verdict.Metrics) != len(f.EndToEnd) {
		t.Errorf("trace 0 printed %d metrics, BENCHMARK.json lists %d end-to-end", len(verdict.Metrics), len(f.EndToEnd))
	}
	for _, m := range f.EndToEnd {
		got, ok := verdict.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || !(got.Value > 0) {
			t.Errorf("metric %s: %+v (present %v), want unit %s and a value above 0", m.Name, got, ok, m.Unit)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "-1"},
		{"-bogus"},
		{"extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestLostCountsExactlyOnceViolations(t *testing.T) {
	tr := workload.Generate(workload.ShareGPT, 10, 4, 1)
	done := func(ids ...string) outcome {
		var o outcome
		for _, id := range ids {
			o.res.Requests = append(o.res.Requests, metrics.Request{ID: id})
		}
		return o
	}
	ids := []string{tr.Requests[0].ID, tr.Requests[1].ID, tr.Requests[2].ID, tr.Requests[3].ID}
	shedLast := done(ids[:3]...)
	shedLast.shed = []workload.Request{tr.Requests[3]}
	for _, c := range []struct {
		name string
		o    outcome
		want int
	}{
		{"all completed", done(ids...), 0},
		{"one shed", shedLast, 0},
		{"missing", done(ids[:3]...), 1},
		{"duplicate", done(append(ids, ids[0])...), 1},
		{"foreign", done(append(ids, "elsewhere-9")...), 1},
		{"panicked", outcome{panicked: "boom"}, 4},
	} {
		if got, why := lost(tr, c.o); got != c.want || (got > 0) != (why != "") {
			t.Errorf("%s: lost %d (%q), want %d", c.name, got, why, c.want)
		}
	}
}

func TestDigestCoversRecords(t *testing.T) {
	base := outcome{}
	base.res.Requests = []metrics.Request{{ID: "a", Finish: units.Seconds(1), InputTokens: 3, OutputTokens: 2}}
	moved := base
	moved.res.Requests = []metrics.Request{{ID: "a", Finish: units.Seconds(1.5), InputTokens: 3, OutputTokens: 2}}
	shed := base
	shed.shed = []workload.Request{{ID: "b"}}
	if digest(base) != digest(base) || digest(base) == digest(moved) || digest(base) == digest(shed) {
		t.Errorf("digests: base %x, moved finish %x, extra shed %x", digest(base), digest(moved), digest(shed))
	}
}

func TestSpanSelfTimes(t *testing.T) {
	l := newTraceLog()
	outer := l.begin("outer")
	inner := l.begin("inner")
	l.begin("left-open")
	time.Sleep(2 * time.Millisecond)
	l.end(inner) // also closes the span a panic would have left open
	total := l.end(outer)
	stats := map[string]spanStat{}
	for _, s := range l.stats() {
		stats[s.name] = s
	}
	if stats["outer"].total != total || stats["outer"].self != total-stats["inner"].total {
		t.Errorf("outer %+v, inner %+v", stats["outer"], stats["inner"])
	}
	if stats["left-open"].total <= 0 || len(l.open) != 0 || len(l.events()) != 3 {
		t.Errorf("left-open %+v, open %v", stats["left-open"], l.open)
	}

	// A timed-phase log keeps totals only, so it does not grow per round.
	plain := newSpanLog()
	for i := 0; i < 3; i++ {
		plain.end(plain.begin("round"))
	}
	if s := plain.stats(); len(plain.spans) != 0 || len(s) != 1 || s[0].count != 3 {
		t.Errorf("plain log: %d spans kept, stats %+v", len(plain.spans), s)
	}
}

func TestIQRMatchesPythonQuantiles(t *testing.T) {
	var d []time.Duration
	for i := 10; i >= 1; i-- {
		d = append(d, time.Duration(i)*time.Second)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqr(d); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
	if got := median(d); got != 5500*time.Millisecond {
		t.Errorf("median = %v", got)
	}
	if fmt.Sprint(median([]float64{})) != "0" {
		t.Error("median of nothing is not 0")
	}
}
