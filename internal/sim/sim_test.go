package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestAtOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Post(3, func() { got = append(got, 3) })
	s.Post(1, func() { got = append(got, 1) })
	s.Post(2, func() { got = append(got, 2) })
	s.RunAll(100)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Post(5, func() { got = append(got, i) })
	}
	s.RunAll(100)
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated at %d: %v", i, got)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New()
	var at Time
	s.PostAfter(2.5, func() { at = s.Now() })
	s.RunAll(10)
	if at != 2.5 {
		t.Fatalf("fired at %v, want 2.5", at)
	}
	if s.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var trace []Time
	s.Post(1, func() {
		trace = append(trace, s.Now())
		s.PostAfter(1, func() {
			trace = append(trace, s.Now())
		})
	})
	s.RunAll(10)
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 2 {
		t.Fatalf("trace = %v", trace)
	}
}

// TestCancel: a cancelled event never fires, and cancelling an event
// that is not queued (never scheduled, already cancelled or fired) is a
// no-op that leaves every other event in place.
func TestCancel(t *testing.T) {
	s := New()
	fired := 0
	e := NewEvent(func() { fired++ })
	s.Cancel(e) // never scheduled
	s.Post(2, func() {})
	s.Schedule(e, 1)
	s.Cancel(e)
	s.Cancel(e) // already cancelled
	if s.Pending() != 1 {
		t.Fatalf("pending = %d after cancel, want 1", s.Pending())
	}
	s.RunAll(10)
	if fired != 0 {
		t.Fatal("cancelled event fired")
	}
	s.Schedule(e, 3)
	s.RunAll(10)
	s.Post(4, func() {})
	s.Cancel(e) // fired
	if s.Pending() != 1 || fired != 1 {
		t.Fatalf("pending=%d fired=%d after cancelling a fired event, want 1 and 1", s.Pending(), fired)
	}
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	fired := false
	e2 := NewEvent(func() { fired = true })
	s.Post(1, func() { s.Cancel(e2) })
	s.Schedule(e2, 2)
	s.RunAll(10)
	if fired {
		t.Fatal("event cancelled from earlier event still fired")
	}
}

// TestReschedule: Schedule on a pending event moves it earlier, and the
// event fires once, at the new time.
func TestReschedule(t *testing.T) {
	s := New()
	var at []Time
	e := NewEvent(func() { at = append(at, s.Now()) })
	s.Schedule(e, 5)
	s.Schedule(e, 2)
	if s.Pending() != 1 {
		t.Fatalf("pending = %d after a move, want 1", s.Pending())
	}
	s.RunAll(10)
	if !reflect.DeepEqual(at, []Time{2}) {
		t.Fatalf("fired at %v, want [2]", at)
	}
}

// TestRescheduleLater: Schedule on a pending event moves it past an event
// it was ahead of.
func TestRescheduleLater(t *testing.T) {
	s := New()
	var order []string
	e := NewEvent(func() { order = append(order, "a") })
	s.Schedule(e, 1)
	s.Post(2, func() { order = append(order, "b") })
	s.Schedule(e, 3)
	s.RunAll(10)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v", order)
	}
}

// TestScheduleTieBreak: whatever state an owned event is in (new,
// pending earlier, at the same time or later, fired, cancelled),
// Schedule takes the next sequence number, so among simultaneous events
// it fires exactly where a Post made at the same call would.
func TestScheduleTieBreak(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(s *Simulation, e *Event)
	}{
		{"new", func(*Simulation, *Event) {}},
		{"pending-earlier", func(s *Simulation, e *Event) { s.Schedule(e, 1.5) }},
		{"pending-same-time", func(s *Simulation, e *Event) { s.Schedule(e, 2) }},
		{"pending-later", func(s *Simulation, e *Event) { s.Schedule(e, 3) }},
		{"fired", func(s *Simulation, e *Event) { s.Schedule(e, 1); s.Run(1) }},
		{"cancelled", func(s *Simulation, e *Event) { s.Schedule(e, 2); s.Cancel(e) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			var order []string
			note := func(name string) func() { return func() { order = append(order, name) } }
			e := NewEvent(note("kept"))
			tc.setup(s, e)
			order = nil
			s.Post(2, note("before"))
			s.Schedule(e, 2)
			s.Post(2, note("after"))
			s.RunAll(10)
			want := []string{"before", "kept", "after"}
			if !reflect.DeepEqual(order, want) || s.Now() != 2 {
				t.Fatalf("order %v at %v, want %v at 2", order, s.Now(), want)
			}
		})
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, tt := range []Time{1, 2, 3, 4} {
		tt := tt
		s.Post(tt, func() { fired = append(fired, tt) })
	}
	n := s.Run(2.5)
	if n != 2 {
		t.Fatalf("processed %d, want 2", n)
	}
	if s.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", s.Now())
	}
	n = s.Run(10)
	if n != 2 {
		t.Fatalf("second run processed %d, want 2", n)
	}
}

func TestRunBoundaryInclusive(t *testing.T) {
	s := New()
	fired := false
	s.Post(2, func() { fired = true })
	s.Run(2)
	if !fired {
		t.Fatal("event at exactly the horizon did not fire")
	}
}

// TestSchedulingInPastPanics: posting, scheduling or moving an event to
// a time before the clock panics and leaves the queue as it was.
func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.Post(5, func() {})
	s.RunAll(10)
	pending := NewEvent(func() {})
	s.Schedule(pending, 6)
	for _, bad := range []struct {
		name     string
		schedule func()
	}{
		{"post", func() { s.Post(1, func() {}) }},
		{"schedule", func() { s.Schedule(NewEvent(func() {}), 1) }},
		{"move", func() { s.Schedule(pending, 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s into the past did not panic", bad.name)
				}
			}()
			bad.schedule()
		}()
	}
	if at, ok := s.NextAt(); s.Pending() != 1 || !ok || at != 6 {
		t.Fatalf("queue holds %d events, next at %v, %v; want the one at 6", s.Pending(), at, ok)
	}
}

func TestPendingAndProcessedCounters(t *testing.T) {
	s := New()
	s.Post(1, func() {})
	s.Post(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	s.RunAll(10)
	if s.Pending() != 0 || s.Processed() != 2 {
		t.Fatalf("pending=%d processed=%d", s.Pending(), s.Processed())
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order.
func TestPropertyTimeOrdered(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		var fired []Time
		for _, r := range raw {
			tt := Time(r) / 16
			s.Post(tt, func() { fired = append(fired, s.Now()) })
		}
		s.RunAll(uint64(len(raw)) + 1)
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		s := New()
		rng := rand.New(rand.NewSource(seed))
		total := int(n%64) + 1
		firedCount := 0
		events := make([]*Event, total)
		for i := 0; i < total; i++ {
			events[i] = NewEvent(func() { firedCount++ })
			s.Schedule(events[i], Time(rng.Intn(50)))
		}
		cancelled := 0
		for _, e := range events {
			if rng.Intn(2) == 0 {
				s.Cancel(e)
				cancelled++
			}
		}
		s.RunAll(uint64(total) + 1)
		return firedCount == total-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refEntry is one pending event of the reference queue in
// TestPropertyScheduleMatchesReference.
type refEntry struct {
	at  Time
	seq uint64
	id  int
}

// Property: random sequences of Post, Schedule, Cancel and Step over a
// few owned events fire in the order of a reference model that treats
// each Schedule as "drop the old entry, post a new one" and fires the
// entry with the least (time, sequence). The goldens rest on this
// tie-break: moving an event must not differ from posting it afresh.
func TestPropertyScheduleMatchesReference(t *testing.T) {
	const owned = 4
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var got []int
		events := make([]*Event, owned)
		for i := range events {
			id := i
			events[i] = NewEvent(func() { got = append(got, id) })
		}
		var ref []refEntry
		var want []int
		var seq uint64
		drop := func(id int) {
			for i, r := range ref {
				if r.id == id {
					ref = append(ref[:i], ref[i+1:]...)
					return
				}
			}
		}
		step := func() {
			if len(ref) == 0 {
				return
			}
			first := 0
			for i, r := range ref {
				if r.at < ref[first].at || (r.at == ref[first].at && r.seq < ref[first].seq) {
					first = i
				}
			}
			want = append(want, ref[first].id)
			ref = append(ref[:first], ref[first+1:]...)
		}
		posts := owned
		for op := 0; op < 200; op++ {
			// Few distinct offsets, so many events tie on time.
			at := s.Now() + Time(rng.Intn(4))
			switch k := rng.Intn(10); {
			case k < 3:
				id := posts
				posts++
				s.Post(at, func() { got = append(got, id) })
				ref = append(ref, refEntry{at, seq, id})
				seq++
			case k < 6:
				id := rng.Intn(owned)
				s.Schedule(events[id], at)
				drop(id)
				ref = append(ref, refEntry{at, seq, id})
				seq++
			case k < 7:
				id := rng.Intn(owned)
				s.Cancel(events[id])
				drop(id)
			default:
				s.Step()
				step()
			}
			if s.Pending() != len(ref) {
				return false
			}
		}
		s.RunAll(uint64(len(ref)) + 1)
		for len(ref) > 0 {
			step()
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// NextAt must report the earliest pending event, the next one once the
// head is cancelled, and nothing on an empty queue.
func TestNextAt(t *testing.T) {
	s := New()
	if _, ok := s.NextAt(); ok {
		t.Fatal("empty queue reported a next event")
	}
	e1 := NewEvent(func() {})
	s.Schedule(e1, 1)
	s.Post(3, func() {})
	if at, ok := s.NextAt(); !ok || at != 1 {
		t.Fatalf("NextAt = %v, %v; want 1, true", at, ok)
	}
	s.Cancel(e1)
	if at, ok := s.NextAt(); !ok || at != 3 {
		t.Fatalf("after cancelling head, NextAt = %v, %v; want 3, true", at, ok)
	}
	s.Step()
	if _, ok := s.NextAt(); ok {
		t.Fatal("drained queue reported a next event")
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.PostAfter(1, func() {})
		s.Step()
	}
}
