package main

import (
	"sort"
	"time"

	"repro/internal/timeline"
	"repro/internal/units"
)

// spanLog records the bench's own wall-clock spans around each call it
// makes into the simulator, so the cost of a layer call can be read from
// outside the program. Spans nest: a span's parent is the innermost span
// still open when it began, and its self time is its duration minus the
// durations of its children. A closed span is folded into its name's
// totals, so the log does not grow with the number of rounds and does
// not show in the live heap the timed phase measures. Only a log made by
// newTraceLog also keeps every span, for the Chrome export.
type spanLog struct {
	origin time.Time
	open   []openSpan
	totals map[string]*spanStat
	keep   bool
	spans  []span // every closed span, when keep is set
}

type openSpan struct {
	name  string
	start time.Duration
	child time.Duration // summed durations of its closed children
}

type span struct {
	name       string
	start, end time.Duration
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), totals: map[string]*spanStat{}}
}

// newTraceLog returns a log that also keeps every span for events.
func newTraceLog() *spanLog {
	l := newSpanLog()
	l.keep = true
	return l
}

// begin opens a span and returns its handle for end.
func (l *spanLog) begin(name string) int {
	l.open = append(l.open, openSpan{name: name, start: time.Since(l.origin)})
	return len(l.open) - 1
}

// end closes span i, together with any span opened inside it that a
// recovered panic left open, and returns span i's duration.
func (l *spanLog) end(i int) time.Duration {
	now := time.Since(l.origin)
	var d time.Duration
	for n := len(l.open); n > i; n = len(l.open) {
		s := l.open[n-1]
		l.open = l.open[:n-1]
		d = now - s.start
		st := l.totals[s.name]
		if st == nil {
			st = &spanStat{name: s.name}
			l.totals[s.name] = st
		}
		st.count++
		st.total += d
		st.self += d - s.child
		if n > 1 {
			l.open[n-2].child += d
		}
		if l.keep {
			l.spans = append(l.spans, span{name: s.name, start: s.start, end: now})
		}
	}
	return d
}

// spanStat aggregates every span of one name.
type spanStat struct {
	name        string
	count       int
	total, self time.Duration
}

// stats returns per-name totals and self times, sorted by name.
func (l *spanLog) stats() []spanStat {
	out := make([]spanStat, 0, len(l.totals))
	for _, st := range l.totals {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// events renders the kept spans as timeline events on a "bench" process
// row, timed in wall-clock seconds since the log began, so they can be
// exported next to the simulator's virtual-time events.
func (l *spanLog) events() []timeline.Event {
	out := make([]timeline.Event, 0, len(l.spans))
	for _, s := range l.spans {
		out = append(out, timeline.Event{
			Kind: timeline.KindSpan, Proc: "bench", Lane: "wall", Name: s.name,
			Start: units.Seconds(s.start.Seconds()), End: units.Seconds(s.end.Seconds()),
		})
	}
	return out
}
