package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// traceBytes runs the quickstart scenario (bullet on ShareGPT at
// 10 req/s, 200 requests, seed 42 — examples/quickstart) with tracing
// attached and exports the Chrome JSON.
func traceBytes(t *testing.T) []byte {
	t.Helper()
	_, rec := RunOneTraced("bullet", workload.ShareGPT, 10, 200, 42)
	if rec.Dropped() != 0 {
		t.Fatalf("trace dropped %d events at default capacity", rec.Dropped())
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("exporting trace: %v", err)
	}
	return buf.Bytes()
}

// TestTimelineGoldenDeterminism is the observability half of the
// determinism contract: the exported Chrome trace of the quickstart
// scenario must be byte-identical across two runs. ci.sh also runs this
// under -race. Any wall-clock read, map-ordered export, or unstable sort
// in the recorder shows up here as the first diverging byte.
func TestTimelineGoldenDeterminism(t *testing.T) {
	a := traceBytes(t)
	b := traceBytes(t)
	if !bytes.Equal(a, b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("trace JSON diverged at byte %d:\n  run1: …%s\n  run2: …%s",
			i, a[lo:min(i+80, len(a))], b[lo:min(i+80, len(b))])
	}
	if !json.Valid(a) {
		t.Fatal("exported trace is not valid JSON")
	}
}

// TestTimelineLifecycleWellNested checks the per-request span invariants
// on a real run: every completed request contributes a queued → prefill
// (→ kv-transfer → decode) chain of async spans whose phases abut
// exactly (each starts where the previous ended) and nest inside
// [arrival, finish].
func TestTimelineLifecycleWellNested(t *testing.T) {
	res, rec := RunOneTraced("bullet", workload.ShareGPT, 10, 120, 7)

	type phase struct {
		name       string
		start, end units.Seconds
	}
	byReq := map[string][]phase{}
	for _, e := range rec.Events() {
		if e.Kind != timeline.KindAsync || e.Lane != "requests" {
			continue
		}
		if e.End < e.Start {
			t.Fatalf("request %s phase %s inverted: [%v, %v]", e.ID, e.Name, e.Start, e.End)
		}
		byReq[e.ID] = append(byReq[e.ID], phase{e.Name, e.Start, e.End})
	}
	if len(byReq) != len(res.Requests) {
		t.Fatalf("lifecycle chains for %d requests, want %d", len(byReq), len(res.Requests))
	}
	for id, ph := range byReq {
		names := make([]string, len(ph))
		for i, p := range ph {
			names[i] = p.name
		}
		switch len(ph) {
		case 2:
			if names[0] != "queued" || names[1] != "prefill" {
				t.Fatalf("request %s: unexpected phases %v", id, names)
			}
		case 4:
			if names[0] != "queued" || names[1] != "prefill" ||
				names[2] != "kv-transfer" || names[3] != "decode" {
				t.Fatalf("request %s: unexpected phases %v", id, names)
			}
		default:
			t.Fatalf("request %s: %d phases %v, want 2 or 4", id, len(ph), names)
		}
		for i := 1; i < len(ph); i++ {
			// Exact equality is the contract: each phase is stamped from
			// the same virtual-clock read that ended the previous one.
			if ph[i].start < ph[i-1].end || ph[i-1].end < ph[i].start {
				t.Fatalf("request %s: phase %s starts at %v, previous ended %v",
					id, ph[i].name, ph[i].start, ph[i-1].end)
			}
		}
	}
}

// TestTimelineSpansWellNestedPerStream checks the kernel-span invariant:
// within one GPU stream lane, spans never overlap (streams are FIFO) and
// appear in nondecreasing start order.
func TestTimelineSpansWellNestedPerStream(t *testing.T) {
	_, rec := RunOneTraced("bullet", workload.AzureCode, 4, 80, 11)
	last := map[string]units.Seconds{}
	spans := 0
	for _, e := range rec.Events() {
		if e.Kind != timeline.KindSpan || e.Proc != "" || len(e.Lane) < 6 || e.Lane[:6] != "stream" {
			continue
		}
		spans++
		if e.Start < last[e.Lane] {
			t.Fatalf("stream lane %s: span %q starts at %v before previous end %v",
				e.Lane, e.Name, e.Start, last[e.Lane])
		}
		last[e.Lane] = e.End
	}
	if spans == 0 {
		t.Fatal("no kernel spans recorded")
	}
}

// TestTimelineDisabledIsFree asserts the nil-recorder contract at the
// system level: a traced run and an untraced run of the same scenario
// produce identical results (recording must never perturb scheduling).
func TestTimelineDisabledIsFree(t *testing.T) {
	plain := RunOne("bullet", workload.AzureCode, 5, 60, 3)
	traced, _ := RunOneTraced("bullet", workload.AzureCode, 5, 60, 3)
	if plain.Summary != traced.Summary {
		t.Fatalf("tracing perturbed the run:\n  plain:  %+v\n  traced: %+v",
			plain.Summary, traced.Summary)
	}
}
