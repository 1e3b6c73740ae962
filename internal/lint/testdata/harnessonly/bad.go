//linttest:path repro/internal/serving

// Known-bad inputs for the harnessonly rule: the concurrency-construct
// ban is module-wide, not just the simulation core (this internal
// package sits outside it).
package fixture

import "sync" // want harnessonly

type mailbox struct {
	ch chan int // want harnessonly
	mu sync.Mutex
}

func spawn(fn func()) {
	go fn() // want harnessonly
}

func sendRecv(ch chan int) { // want harnessonly
	ch <- 1 // want harnessonly
	<-ch    // want harnessonly
}

func waitEither(a, b chan int) int { // want harnessonly
	select { // want harnessonly
	case v := <-a: // want harnessonly
		return v
	case v := <-b: // want harnessonly
		return v
	}
}

func drain(ch chan int) int { // want harnessonly
	total := 0
	for v := range ch { // want harnessonly
		total += v
	}
	return total
}
