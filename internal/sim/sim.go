// Package sim provides a deterministic discrete-event simulation core:
// a virtual clock, an event queue with stable FIFO ordering for
// simultaneous events, and movable, cancellable events.
//
// All other simulated subsystems (the GPU, the serving engines, the
// workload arrival process) are driven from a single Simulation instance,
// which makes every experiment in this repository fully deterministic and
// reproducible from a seed.
//
// Events come in two kinds that share one queue. Post/PostAfter schedule
// a one-shot callback with no handle: the event struct comes from an
// internal arena that recycles it the moment it fires, so the
// steady-state schedule/fire cycle performs zero heap allocations.
// NewEvent makes a caller-owned event once; Schedule queues it, or moves
// it when it is already pending, and Cancel dequeues it. A caller that
// keeps moving one callback (a kernel's completion, the cluster's pump)
// allocates its event once and schedules it any number of times.
package sim

import (
	"fmt"

	"repro/internal/units"
)

// Time is simulated time in seconds — an alias for units.Seconds, so
// every timestamp flowing out of the event core is unit-typed without a
// conversion layer. float64 resolution (~1e-15 of the magnitude) is far
// below the microsecond granularity we care about.
type Time = units.Seconds

// Event is a scheduled callback. Caller-owned events come from NewEvent
// (the zero value is not usable); events scheduled through Post/PostAfter
// are pool-owned and never escape to callers.
type Event struct {
	at     Time
	seq    uint64 // tie-break: FIFO among simultaneous events
	fn     func()
	index  int  // heap index, -1 when not queued
	pooled bool // owned by the arena; recycled when it fires
}

// NewEvent makes a caller-owned event that runs fn each time it fires.
// It is not queued until Schedule.
func NewEvent(fn func()) *Event {
	return &Event{fn: fn, index: -1}
}

// Simulation owns the virtual clock and the pending event set.
// The zero value is not usable; call New.
type Simulation struct {
	now   Time
	queue []*Event
	seq   uint64
	// Processed counts events fired since creation (for diagnostics).
	processed uint64
	// Pooled-event arena: free holds recycled events, chunk is the
	// bump-allocation tail of the most recent arena block.
	free  []*Event
	chunk []Event
}

// New creates an empty simulation at time zero.
func New() *Simulation {
	return &Simulation{}
}

// Now returns the current simulated time.
func (s *Simulation) Now() Time { return s.now }

// Processed returns the number of events fired so far.
func (s *Simulation) Processed() uint64 { return s.processed }

// Pending returns the number of events currently scheduled.
func (s *Simulation) Pending() int { return len(s.queue) }

// eventLess orders the queue by firing time, then by scheduling sequence
// so simultaneous events fire FIFO.
func eventLess(a, b *Event) bool {
	if a.at < b.at {
		return true
	}
	if b.at < a.at {
		return false
	}
	return a.seq < b.seq
}

// The queue is a hand-rolled binary min-heap rather than container/heap:
// the stdlib interface takes `any` operands, which boxes on every push
// and pop — measurable on the event loop, the innermost loop of every
// experiment.

//bullet:hotpath
func (s *Simulation) pushEvent(e *Event) {
	e.index = len(s.queue)
	//lint:ignore hotalloc queue growth is amortized; steady state reuses capacity
	s.queue = append(s.queue, e)
	s.siftUp(e.index)
}

//bullet:hotpath
func (s *Simulation) siftUp(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if !eventLess(e, p) {
			break
		}
		q[i] = p
		p.index = i
		i = parent
	}
	q[i] = e
	e.index = i
}

//bullet:hotpath
func (s *Simulation) siftDown(i int) {
	q := s.queue
	n := len(q)
	e := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(q[r], q[c]) {
			c = r
		}
		if !eventLess(q[c], e) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = e
	e.index = i
}

// popMin removes and returns the earliest event.
//
//bullet:hotpath
func (s *Simulation) popMin() *Event {
	q := s.queue
	n := len(q) - 1
	e := q[0]
	last := q[n]
	q[n] = nil
	s.queue = q[:n]
	if n > 0 {
		q[0] = last
		last.index = 0
		s.siftDown(0)
	}
	e.index = -1
	return e
}

// removeAt deletes the event at heap index i, restoring the heap
// property around the displaced last element.
func (s *Simulation) removeAt(i int) {
	q := s.queue
	n := len(q) - 1
	e := q[i]
	if i != n {
		moved := q[n]
		q[i] = moved
		moved.index = i
	}
	q[n] = nil
	s.queue = q[:n]
	if i < n {
		moved := s.queue[i]
		s.siftDown(i)
		if moved.index == i {
			s.siftUp(i)
		}
	}
	e.index = -1
}

// allocEvent hands out a pooled event: from the free list when one has
// been recycled, else bump-allocated from the current arena chunk.
//
//bullet:hotpath
func (s *Simulation) allocEvent() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	if len(s.chunk) == 0 {
		//lint:ignore hotalloc arena miss allocates a block of 64; steady state recycles
		s.chunk = make([]Event, 64)
	}
	e := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return e
}

// recycleEvent returns a fired pooled event to the free list. The
// callback reference is dropped so the arena never pins caller closures.
//
//bullet:hotpath
func (s *Simulation) recycleEvent(e *Event) {
	e.fn = nil
	//lint:ignore hotalloc free-list growth is bounded by the arena; steady state reuses capacity
	s.free = append(s.free, e)
}

// NextAt returns the firing time of the earliest pending event, or false
// when none remain. Conservative-window drivers (the cluster's replica
// pump) use this to pick the next horizon every sub-simulation can safely
// advance to.
//
//bullet:hotpath
func (s *Simulation) NextAt() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// checkTime validates a scheduling target against the clock.
//
//bullet:hotpath
func (s *Simulation) checkTime(t Time, verb string) {
	if t < s.now {
		panic(fmt.Sprintf("sim: %s event at %.9g before now %.9g", verb, t, s.now))
	}
	if units.IsNaN(t) || units.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: %s event at non-finite time %v", verb, t))
	}
}

// Post schedules fn to run at absolute time t with no handle: the event
// cannot be moved or cancelled, and its storage is recycled the moment
// it fires. This is the allocation-free path for the vast majority of
// schedules (engine cycles, pipeline stage completions, arrival
// injection), which never keep an event. Scheduling in the past
// (t < Now) panics: that is always a logic error in a discrete-event
// model.
//
//bullet:hotpath
func (s *Simulation) Post(t Time, fn func()) {
	s.checkTime(t, "posting")
	e := s.allocEvent()
	*e = Event{at: t, seq: s.seq, fn: fn, pooled: true}
	s.seq++
	s.pushEvent(e)
}

// PostAfter schedules fn to run d seconds from now, without a handle
// (see Post).
//
//bullet:hotpath
func (s *Simulation) PostAfter(d Time, fn func()) {
	s.Post(s.now+d, fn)
}

// Schedule queues a caller-owned event at absolute time t, or moves it
// there when it is already pending. Either way it takes the next sequence
// number, so among simultaneous events it fires exactly where a Post made
// at the same call would. Scheduling in the past panics, as for Post.
//
//bullet:hotpath
func (s *Simulation) Schedule(e *Event, t Time) {
	s.checkTime(t, "scheduling")
	e.at = t
	e.seq = s.seq
	s.seq++
	i := e.index
	if i < 0 {
		s.pushEvent(e)
		return
	}
	s.siftDown(i)
	if e.index == i {
		s.siftUp(i)
	}
}

// Cancel dequeues a caller-owned event. Cancelling an event that is not
// queued (never scheduled, fired or already cancelled) is a no-op.
func (s *Simulation) Cancel(e *Event) {
	if e.index >= 0 {
		s.removeAt(e.index)
	}
}

// Step fires the next event, advancing the clock. It returns false when no
// events remain. Pooled events are recycled before their callback runs,
// so a callback that posts a follow-up event reuses the storage of the
// event being fired — the zero-allocation steady state of every
// self-rescheduling loop in the tree.
//
//bullet:hotpath
func (s *Simulation) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.popMin()
	s.now = e.at
	s.processed++
	fn := e.fn
	if e.pooled {
		s.recycleEvent(e)
	}
	fn()
	return true
}

// Run processes events until the queue drains or the clock would pass
// until. Events at exactly until are fired. It returns the number of events
// processed.
//
//bullet:hotpath
func (s *Simulation) Run(until Time) uint64 {
	start := s.processed
	for len(s.queue) > 0 && s.queue[0].at <= until {
		s.Step()
	}
	if s.now < until {
		// Advance the clock to the horizon so repeated Run calls are
		// idempotent in time.
		s.now = until
	}
	return s.processed - start
}

// RunAll processes events until the queue drains. A safety cap avoids
// spinning forever on self-perpetuating schedules; exceeding it panics.
func (s *Simulation) RunAll(maxEvents uint64) uint64 {
	start := s.processed
	for s.Step() {
		if s.processed-start > maxEvents {
			panic(fmt.Sprintf("sim: RunAll exceeded %d events; runaway schedule?", maxEvents))
		}
	}
	return s.processed - start
}
