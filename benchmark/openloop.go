package main

import (
	"context"
	"sync"
	"time"
)

// outcome is the fate of one open-loop arrival. Every arrival gets one:
// nothing is dropped without being counted.
type outcome struct {
	// dispatched is false for an arrival still queued when the run's grace
	// period ended; it was never sent and counts as failed.
	dispatched bool
	// lateness is dispatch − due: how long the arrival waited for the
	// generator (scheduler wake-up, or every connection busy).
	lateness time.Duration
}

// openLoop releases arrival i at start+dues[i] whether or not earlier ones
// have completed, and runs do(worker, i, due) for it on the first free of
// `workers` goroutines (one per connection). do is handed the due time to
// time the request from, so that a stall is charged to every arrival that
// queued behind it and not only to the one request that was slow.
// Arrivals queue without bound while all workers are busy. Once the last
// due time plus grace has passed, or ctx is cancelled, arrivals not yet
// dispatched are abandoned and reported as such. dues must be ascending.
func openLoop(ctx context.Context, start time.Time, dues []time.Duration, workers int, grace time.Duration, do func(worker, i int, due time.Time)) []outcome {
	out := make([]outcome, len(dues))
	if len(dues) == 0 {
		return out
	}
	giveUp := start.Add(dues[len(dues)-1] + grace)
	// Sized to the number of sends so the scheduler never blocks on a
	// slow consumer: a late release would corrupt every later due time.
	queue := make(chan int, len(dues))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				due, sent := start.Add(dues[i]), time.Now()
				if sent.After(giveUp) || ctx.Err() != nil {
					continue
				}
				do(w, i, due)
				out[i] = outcome{dispatched: true, lateness: sent.Sub(due)}
			}
		}(w)
	}
	for i, d := range dues {
		select {
		case <-time.After(time.Until(start.Add(d))):
		case <-ctx.Done(): // release the rest at once; the workers skip them
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}
