package dp

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// batchHook, when non-nil, is called as batch b is taken up (done =
// false, before its cancellation check) and after it folds (done =
// true, under the result lock) — a test seam for forcing batches to
// finish out of seed order. Set it only while no run is in flight.
var batchHook func(b int, done bool)

// batchSlots is what the scheduler hands back: per-iteration estimates
// and times in seed order, and which seed slots completed.
type batchSlots struct {
	estimates []float64
	iterTimes []time.Duration
	completed []bool
}

// prefix returns the length of the longest contiguous completed seed
// prefix and the number of completed iterations past it. A cancelled
// run reports only the prefix, so PerIteration[i] always colored with
// Seed+i; the completions beyond the first gap are dropped.
func (s *batchSlots) prefix() (n, dropped int) {
	for n < len(s.completed) && s.completed[n] {
		n++
	}
	for _, ok := range s.completed[n:] {
		if ok {
			dropped++
		}
	}
	return n, dropped
}

// runBatches is RunContext's scheduler: the iteration range [0, iters)
// is cut into ceil(iters/B) batches of up to B = Engine.Batch() lanes,
// and each batch runs ONE bottom-up DP traversal for all of its lanes
// (the last batch may be ragged). Lane j of batch b colors with seed
// Seed + b·B + j, so estimates land in the same slots at every width; a
// single iteration is a one-lane batch.
//
// Mode mapping:
//
//	Inner:  batches run sequentially, all workers shard vertices inside
//	        each traversal (peak memory ≈ B× one iteration).
//	Outer:  batches run concurrently with one worker each (memory grows
//	        with concurrent batches × lanes) — the paper's concurrent
//	        independent iterations when B = 1.
//	Hybrid: concurrent batches each get a hybridSplit share of the
//	        inner-loop budget.
//
// Per-lane iteration times are the batch wall time divided by its lane
// count — the traversal is shared, so lanes have no individual timings.
func (e *Engine) runBatches(ctx context.Context, mode Mode, iters int, stop *atomic.Bool, start time.Time, stats *RunStats, res *Result) batchSlots {
	B := e.batch
	numBatches := (iters + B - 1) / B
	slots := batchSlots{
		estimates: make([]float64, iters),
		iterTimes: make([]time.Duration, iters),
		completed: make([]bool, iters),
	}

	runBatch := func(slot, b, innerW int) (*batchState, time.Duration) {
		base := b * B
		lanes := B
		if base+lanes > iters {
			lanes = iters - base
		}
		st := e.newBatchState(slot, e.cfg.Seed+int64(base), lanes, innerW)
		st.stop = stop
		if e.tree != nil {
			st.nodeTimes = make([]time.Duration, len(e.tree.Order))
		}
		t0 := time.Now()
		st.run()
		return st, time.Since(t0)
	}

	// fold merges one finished batch and reports the iterations that
	// extend the completed seed prefix through OnIteration, so the hook
	// sees exactly the iterations the result will hold, in seed order.
	// Callers serialize (the concurrent modes hold mu).
	delivered := 0
	fold := func(b int, st *batchState, d time.Duration) {
		if batchHook != nil {
			defer batchHook(b, true)
		}
		stats.mergeBatch(st)
		if st.peakBytes > res.PeakTableBytes {
			res.PeakTableBytes = st.peakBytes
		}
		if st.aborted {
			return
		}
		if B > 1 {
			stats.BatchesRun++
		}
		perLane := d / time.Duration(st.lanes)
		base := b * B
		//lint:ctxpoll ok — ≤B-element fold of a completed batch; breaking mid-fold would drop lanes that already ran
		for j := 0; j < st.lanes; j++ {
			i := base + j
			slots.estimates[i] = e.scale(st.totals[j])
			slots.iterTimes[i] = perLane
			slots.completed[i] = true
		}
		//lint:ctxpoll ok — reports already-completed iterations; stopping mid-way would hide iterations the result holds
		for ; delivered < iters && slots.completed[delivered]; delivered++ {
			if e.cfg.OnIteration != nil {
				e.cfg.OnIteration(delivered, slots.estimates[delivered], time.Since(start))
			}
		}
	}
	taken := func(b int) {
		if batchHook != nil {
			batchHook(b, false)
		}
	}

	if mode == Inner {
		for b := 0; b < numBatches; b++ {
			taken(b)
			if stopRequested(ctx, stop) {
				break
			}
			st, d := runBatch(0, b, e.workers())
			fold(b, st, d)
			if st.aborted {
				break
			}
		}
		return slots
	}

	workers := e.workers()
	if workers > numBatches {
		workers = numBatches
	}
	innerWs := make([]int, workers)
	for w := range innerWs {
		innerWs[w] = 1
	}
	if mode == Hybrid {
		workers, innerWs = hybridSplit(e.workers(), numBatches)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Static round-robin: slot w always takes batches w, w+W, …
			// in order, so a repeated run replays each slot's slab demand
			// exactly and the slot's arena serves all of it.
			for b := w; b < numBatches; b += workers {
				taken(b)
				if stopRequested(ctx, stop) {
					return
				}
				st, d := runBatch(w, b, innerWs[w])
				mu.Lock()
				fold(b, st, d)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return slots
}
