// Package forkjoin is the repository's single concurrency harness: a
// deterministic, bounded fork/join executor for embarrassingly parallel
// work such as advancing isolated cluster replicas between router
// decision points or running independent sweep rows.
//
// The determinism contract (DESIGN.md, "Concurrency contract") is that
// the OUTPUT of a fork/join region is a pure function of its inputs and
// never of the Go scheduler:
//
//   - results are index-addressed: task i writes only slot i, so the
//     join observes the same slice regardless of completion order;
//   - task bodies own their state: they may not read or write anything
//     another task can write (machine-checked by the bulletlint
//     replicaisolation and mergeorder analyzers);
//   - randomness inside a task comes from ForkSeed(seed, i), never from
//     shared or global sources (machine-checked by nodeterm).
//
// Under that contract Do(n, 1, fn) and Do(n, w, fn) are byte-identical
// for every w, which the -workers 4 rows of cmd/bulletsim's TestGolden
// pin against the serial goldens. Every other package in the module is
// forbidden from using go statements, channels, select, or sync by the
// harnessonly analyzer; concurrency is obtained exclusively by calling
// this package.
package forkjoin

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the harness regardless of GOMAXPROCS: fork/join
// regions here are CPU-bound simulation advances, so parallelism past
// the core count only adds scheduling noise.
const maxWorkers = 64

// Workers returns the default parallelism: GOMAXPROCS capped at
// maxWorkers. By the isolation contract the value never affects results,
// only wall-clock time, so reading the runtime configuration here does
// not breach the determinism rules.
func Workers() int {
	w := runtime.GOMAXPROCS(0)
	if w > maxWorkers {
		w = maxWorkers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// TaskPanic is the panic value Do re-throws when a task body panics: the
// original value plus the task context (index, region size) and the
// panicking task's stack. When several tasks panic in one region the
// lowest task index deterministically wins.
type TaskPanic struct {
	Task  int
	N     int
	Value any
	Stack []byte
}

func (e *TaskPanic) Error() string {
	return fmt.Sprintf("forkjoin: task %d of %d panicked: %v\n%s", e.Task, e.N, e.Value, e.Stack)
}

// Unwrap exposes the original panic value when it was an error, so
// errors.Is/As keep working through the harness boundary.
func (e *TaskPanic) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Do runs fn(0), fn(1), ..., fn(n-1) with at most `workers` concurrent
// executions and blocks until every task has finished. workers <= 0
// selects the Workers() default; workers == 1 (or n == 1) runs every
// task inline on the calling goroutine in index order, without reading
// the runtime configuration and without allocating.
//
// Task bodies must satisfy the isolation contract in the package
// comment. If any task panics, Do panics with a *TaskPanic for the
// lowest-indexed panicking task after all other tasks have completed, in
// serial and parallel mode alike.
func Do(n, workers int, fn func(i int)) {
	if n > 1 && workers != 1 {
		if workers <= 0 {
			workers = Workers()
		}
		if workers > 1 {
			doParallel(n, min(workers, n), fn)
			return
		}
	}
	var first *TaskPanic
	for i := 0; i < n; i++ {
		if tp := runTask(i, n, fn); tp != nil && first == nil {
			first = tp
		}
	}
	rethrow(first)
}

// doParallel runs Do's region on workers goroutines that claim task
// indices from a shared counter. The lowest-indexed panic wins at the
// join whatever order the tasks ran in.
//
//bullet:hotpath-ignore a region forks only when two or more tasks are due at once, which per-event cluster windows almost never have
func doParallel(n, workers int, fn func(i int)) {
	var (
		next  int64 // next undispatched task index
		wg    sync.WaitGroup
		mu    sync.Mutex
		first *TaskPanic
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= n {
					return
				}
				if tp := runTask(i, n, fn); tp != nil {
					mu.Lock()
					if first == nil || tp.Task < first.Task {
						first = tp
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	rethrow(first)
}

// runTask executes one task and returns the TaskPanic record of its
// panic, nil when it finished normally; the region runs its remaining
// tasks to completion either way.
func runTask(i, n int, fn func(int)) (tp *TaskPanic) {
	defer func() {
		if v := recover(); v != nil {
			//lint:ignore hotalloc a panicking task ends the run: the stack buffer is built once, on the way out
			stack := make([]byte, 16<<10)
			stack = stack[:runtime.Stack(stack, false)]
			//lint:ignore hotalloc a panicking task ends the run: the record is built once, on the way out
			tp = &TaskPanic{Task: i, N: n, Value: v, Stack: stack}
		}
	}()
	fn(i)
	return nil
}

// rethrow re-raises a region's winning task panic at the join.
func rethrow(tp *TaskPanic) {
	if tp != nil {
		//lint:ignore panicmsg TaskPanic's Error carries the task index, region size, and original stack
		panic(tp)
	}
}

// Map runs fn over every index and returns the index-addressed result
// slice: out[i] is fn(i) regardless of completion order. This is the
// join shape the mergeorder analyzer steers callers toward — never
// append in completion order, never drain a results channel.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	Do(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// ForkSeed derives the sub-seed for task i of a region seeded with
// seed. It is a splitmix64-style mix: deterministic, stateless, and
// well-spread even for adjacent task indices, so per-task *rand.Rand
// streams are independent of both each other and the worker schedule.
func ForkSeed(seed int64, task int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(task+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Memo is a concurrency-safe memo table for deterministic computations:
// Get returns the cached value for a key, computing it at most once per
// process. It exists so packages outside the harness can share
// deterministic per-process caches (e.g. fitted estimator parameters)
// without owning sync primitives of their own, which the harnessonly
// analyzer forbids. Because compute must be a pure function of the key,
// which caller wins the race is unobservable in the results.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// Get returns the memoized value for key, invoking compute under the
// table lock if the key has not been seen. compute must be deterministic
// in key; it must not recursively call Get on the same Memo.
func (c *Memo[K, V]) Get(key K, compute func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[key]; ok {
		return v
	}
	if c.m == nil {
		c.m = map[K]V{}
	}
	v := compute()
	c.m[key] = v
	return v
}
