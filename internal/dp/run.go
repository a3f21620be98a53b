package dp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Result summarizes a counting run.
type Result struct {
	// Estimate is the mean over iterations of the scaled colorful count:
	// the approximate number of non-induced occurrences of the template.
	Estimate float64
	// PerIteration holds each iteration's individual estimate, in seed
	// order. For a cancelled run it holds the longest contiguous prefix
	// of completed iterations (see RunStats.DroppedIterations).
	PerIteration []float64
	// StdErr is the standard error of the mean across iterations (0 for
	// a single iteration).
	StdErr float64
	// PeakTableBytes is the maximum summed table footprint observed in
	// any single iteration.
	PeakTableBytes int64
	// Elapsed is the wall-clock time of the whole run.
	Elapsed time.Duration
	// ModeUsed records the resolved parallelization mode.
	ModeUsed Mode
	// Stats is the observability snapshot of the run (per-node times,
	// kernel decisions, table row traffic, per-iteration timings).
	Stats RunStats
}

// Run executes iters color-coding iterations (Algorithm 1) and averages
// their estimates. Estimates are independent of the parallel mode: the
// i-th iteration always colors with seed Seed+i.
func (e *Engine) Run(iters int) (Result, error) {
	return e.RunContext(context.Background(), iters)
}

// RunContext is Run with cooperative cancellation: the context is polled
// at iteration boundaries and inside every DP pass at vertex granularity,
// so all three parallel modes abort promptly (typically well under a
// millisecond of DP work after cancellation). On cancellation it returns
// the partial result alongside ctx.Err(): the longest contiguous prefix
// of completed iterations (so PerIteration[i] still colored with
// Seed+i), with Stats.Cancelled set and Stats.DroppedIterations counting
// the completed iterations past the first gap.
func (e *Engine) RunContext(ctx context.Context, iters int) (Result, error) {
	if iters < 1 {
		return Result{}, fmt.Errorf("dp: iterations must be >= 1, got %d", iters)
	}
	m := e.mark()
	mode := e.mode()
	stop, release := watchContext(ctx)
	defer release()
	stats := e.newRunStats()
	stats.BatchSize = e.batch
	res := Result{ModeUsed: mode}

	slots := e.runBatches(ctx, mode, iters, stop, m.start, &stats, &res)
	n, dropped := slots.prefix()
	res.PerIteration = slots.estimates[:n]
	stats.IterTimes = slots.iterTimes[:n]
	stats.Iterations = n
	stats.DroppedIterations = dropped
	res.Estimate, res.StdErr = summarize(res.PerIteration)
	return e.finish(ctx, m, res, stats)
}

// runMark snapshots the engine-lifetime counters at run start, so a run
// can report its own deltas.
type runMark struct {
	start  time.Time
	kd, ka int64 // kernel passes: direct, aggregated
	ah, am int64 // arena slabs: hits, misses
}

func (e *Engine) mark() runMark {
	m := runMark{start: time.Now()}
	m.kd, m.ka = e.KernelStats()
	m.ah, m.am = e.ArenaStats()
	return m
}

// finish fills the run-level stats (counter deltas since m, spill and
// RSS snapshots, elapsed time) and attaches them to res, returning
// ctx.Err() for a cancelled run.
func (e *Engine) finish(ctx context.Context, m runMark, res Result, stats RunStats) (Result, error) {
	kd, ka := e.KernelStats()
	stats.KernelDirect, stats.KernelAggregate = kd-m.kd, ka-m.ka
	ah, am := e.ArenaStats()
	stats.ArenaHits, stats.ArenaMisses = ah-m.ah, am-m.am
	stats.PeakTableBytes = res.PeakTableBytes
	spillSlabs, spillBytes := e.spillStats()
	stats.SpillSlabs, stats.SpillMappedBytes = int64(spillSlabs), spillBytes
	stats.sampleRSS()
	res.Elapsed = time.Since(m.start)
	err := ctx.Err()
	stats.Cancelled = err != nil
	res.Stats = stats
	return res, err
}

// summarize returns the mean and the standard error of the mean of the
// concatenated estimate streams, summed in stream order (two-pass, so
// every caller reports bit-identical figures for the same stream).
func summarize(parts ...[]float64) (mean, stdErr float64) {
	n := 0
	var sum float64
	for _, xs := range parts {
		n += len(xs)
		for _, x := range xs {
			sum += x
		}
	}
	if n == 0 {
		return 0, 0
	}
	mean = sum / float64(n)
	if n == 1 {
		return mean, 0
	}
	var ss float64
	for _, xs := range parts {
		for _, x := range xs {
			d := x - mean
			ss += d * d
		}
	}
	return mean, math.Sqrt(ss / float64(n-1) / float64(n))
}

// hybridSplit divides a worker budget between concurrent iterations
// (outer level) and per-traversal DP workers (inner level), aiming for
// the balanced ~sqrt split of Hybrid mode without stranding budget. The
// old floor-division split under-subscribed every non-square budget
// (7 workers -> 3 outer x 2 inner = 6 used); here the remainder workers
// go one each to the first outer slots (7 -> [3 2 2]), so the inner
// widths always sum to min(total, ...) exactly. outerW never exceeds
// slots — the number of schedulable units (iterations or batches) — so
// short runs widen inner parallelism instead of idling outer slots.
func hybridSplit(total, slots int) (outerW int, innerW []int) {
	if total < 1 {
		total = 1
	}
	if slots < 1 {
		slots = 1
	}
	outerW = 1
	for outerW*outerW < total { // ceil(sqrt(total))
		outerW++
	}
	if outerW > slots {
		outerW = slots
	}
	innerW = make([]int, outerW)
	base, rem := total/outerW, total%outerW
	for w := range innerW {
		innerW[w] = base
		if w < rem {
			innerW[w]++
		}
	}
	return outerW, innerW
}

// scale converts a colorful mapping total into an occurrence estimate
// (Algorithm 2, lines 20-23): divide by the colorful probability and the
// automorphism count of the template.
func (e *Engine) scale(total float64) float64 {
	return total / (e.prob * float64(e.aut))
}

// ColorfulTotal runs a single DP pass with the given coloring seed and
// returns the raw colorful mapping total (no scaling). It is the hook the
// correctness tests use to compare against brute-force colorful
// enumeration under a deterministic coloring.
func (e *Engine) ColorfulTotal(seed int64) float64 {
	st := e.newBatchState(0, seed, 1, e.workers())
	st.run()
	return st.totals[0]
}

// ColoringFor reproduces the vertex coloring used by iteration seed, for
// tests and external verification. Colors are indexed by the caller's
// original vertex ids: the rng stream is always drawn in original-id
// order, and a degree-bucketed execution reordering only scatters the
// same per-vertex colors into the relabeled id space.
func (e *Engine) ColoringFor(seed int64) []int8 {
	rng := rand.New(rand.NewSource(seed))
	colors := make([]int8, e.g.N())
	for i := range colors {
		colors[i] = int8(rng.Intn(e.k))
	}
	return colors
}

// Reseed changes the engine's base coloring seed for subsequent runs.
// All precomputed structures (partition tree, split tables) are
// seed-independent, so reseeding a built engine is free — the retry loop
// of embedding sampling uses it instead of rebuilding the engine.
func (e *Engine) Reseed(seed int64) { e.cfg.Seed = seed }

// ReleaseKept drops tables retained by a KeepTables run, returning their
// storage (and the kept color vector) to the engine arena before a
// re-run replaces them.
func (e *Engine) ReleaseKept() {
	e.keptMu.Lock()
	defer e.keptMu.Unlock()
	e.releaseKeptLocked()
}

func (e *Engine) releaseKeptLocked() {
	//lint:maporder ok — release-only loop: table teardown order cannot affect any estimate
	for _, tab := range e.kept {
		tab.Release()
	}
	e.kept = nil
	e.keptArena.PutI8(e.keptColors)
	e.keptColors = nil
	e.keptArena = nil
}

// VertexCounts estimates, for every graph vertex v, the number of
// template embeddings in which v plays the role of the template root
// (set Config.RootVertex to pick the role — e.g. the center of U5-2 for
// the paper's graphlet-degree experiments). Estimates are averaged over
// iters iterations and scaled by the colorful probability and the number
// of automorphisms fixing the root.
func (e *Engine) VertexCounts(iters int) ([]float64, error) {
	return e.VertexCountsContext(context.Background(), iters)
}

// VertexCountsContext is VertexCounts with cooperative cancellation. On
// cancellation it returns the partial per-vertex estimates rescaled to
// the iterations that completed (nil when none did) alongside ctx.Err().
func (e *Engine) VertexCountsContext(ctx context.Context, iters int) ([]float64, error) {
	if iters < 1 {
		return nil, fmt.Errorf("dp: iterations must be >= 1, got %d", iters)
	}
	if e.bag != nil {
		return nil, fmt.Errorf("dp: per-vertex rooted counts require a tree template; %s runs the bag DP", e.t.Name())
	}
	if e.cfg.Share {
		return nil, fmt.Errorf("dp: per-vertex counts require Share=false (shared nodes lose root identity)")
	}
	stop, release := watchContext(ctx)
	defer release()
	n := e.g.N()
	acc := make([]float64, n)
	scale := 1 / (e.prob * float64(e.rAut) * float64(iters))
	done := 0
	for i := 0; i < iters; i++ {
		if stopRequested(ctx, stop) {
			break
		}
		st := e.newBatchState(0, e.cfg.Seed+int64(i), 1, e.workers())
		st.stop = stop
		st.keep = false
		st.keepRoot = true // retain the root table for reading
		st.run()
		if st.aborted {
			break
		}
		root := st.tabs[e.tree.Root].Table() // one lane: the plain table
		// Aborting inside this fold would leave acc holding a partial
		// iteration that the done-count rescale below cannot see, so the
		// read-only O(n) walk runs to completion; cancellation is polled
		// at the iteration boundary above and per vertex inside st.run().
		//lint:ctxpoll ok — read-only fold of a completed iteration; breaking mid-fold would corrupt the partial mean
		for v := int32(0); v < int32(n); v++ {
			if root.Has(v) {
				// Emit through the inverse permutation so callers see
				// counts indexed by their own vertex ids even when the
				// engine runs on a degree-bucketed relabeling.
				acc[e.origID(v)] += root.SumRow(v) * scale
			}
		}
		st.release()
		done++
	}
	if err := ctx.Err(); err != nil {
		if done == 0 {
			return nil, err
		}
		// Rescale the partial sum from 1/iters to 1/done.
		f := float64(iters) / float64(done)
		for v := range acc {
			acc[v] *= f
		}
		return acc, err
	}
	return acc, nil
}

// RunConverged runs iterations adaptively until the relative standard
// error of the mean estimate falls below relStdErr, bounded by minIters
// and maxIters — a practical alternative to the enormously conservative
// theoretical bound of IterationsFor (the paper's Figures 10-12 show a
// few iterations usually suffice; this automates "enough"). Iterations
// use the same seeds as Run, so a converged run is a prefix of a fixed
// run. Inner-loop parallelism applies within each iteration.
func (e *Engine) RunConverged(relStdErr float64, minIters, maxIters int) (Result, error) {
	return e.RunConvergedContext(context.Background(), relStdErr, minIters, maxIters)
}

// RunConvergedContext is RunConverged with cooperative cancellation,
// polled at iteration boundaries and at vertex granularity inside each
// DP pass. On cancellation it returns the partial result alongside
// ctx.Err().
func (e *Engine) RunConvergedContext(ctx context.Context, relStdErr float64, minIters, maxIters int) (Result, error) {
	return e.RunConvergedPriorContext(ctx, relStdErr, minIters, maxIters, nil)
}

// RunConvergedPriorContext is RunConvergedContext seeded with prior
// per-iteration estimates computed elsewhere (a result cache, an
// earlier shard wave): the Welford accumulator starts from prior and
// the min/max iteration bounds count prior toward the totals, so the
// run only spends the residual iterations the target still needs.
// Fresh iterations color with this engine's Seed+i from i = 0 —
// callers offset Config.Seed by len(prior) to keep the global seed
// schedule contiguous. PerIteration holds only the fresh estimates;
// Estimate and StdErr cover prior and fresh together.
func (e *Engine) RunConvergedPriorContext(ctx context.Context, relStdErr float64, minIters, maxIters int, prior []float64) (Result, error) {
	if relStdErr <= 0 {
		return Result{}, fmt.Errorf("dp: relStdErr must be positive, got %v", relStdErr)
	}
	if minIters < 2 {
		minIters = 2
	}
	if maxIters < minIters {
		return Result{}, fmt.Errorf("dp: maxIters %d < minIters %d", maxIters, minIters)
	}
	m := e.mark()
	stop, release := watchContext(ctx)
	defer release()
	workers := 1
	if e.mode() == Inner {
		workers = e.workers()
	}
	stats := e.newRunStats()
	// Convergence checks are per iteration, so adaptive runs use one
	// lane regardless of Config.Batch.
	stats.BatchSize = 1
	res := Result{ModeUsed: e.mode()}
	var mean, m2 float64
	for j, est := range prior {
		n := float64(j + 1)
		delta := est - mean
		mean += delta / n
		m2 += delta * (est - mean)
	}
	converged := func() bool {
		n := float64(len(prior) + len(res.PerIteration))
		if n < float64(minIters) || n < 2 || mean == 0 {
			return false
		}
		return math.Sqrt(m2/(n-1)/n)/math.Abs(mean) <= relStdErr
	}
	for i := 0; len(prior)+i < maxIters && !converged(); i++ {
		if stopRequested(ctx, stop) {
			break
		}
		st := e.newBatchState(0, e.cfg.Seed+int64(i), 1, workers)
		st.stop = stop
		if e.tree != nil {
			st.nodeTimes = make([]time.Duration, len(e.tree.Order))
		}
		t0 := time.Now()
		st.run()
		total := st.totals[0]
		d := time.Since(t0)
		stats.mergeBatch(st)
		if st.peakBytes > res.PeakTableBytes {
			res.PeakTableBytes = st.peakBytes
		}
		if st.aborted {
			break
		}
		est := e.scale(total)
		res.PerIteration = append(res.PerIteration, est)
		stats.IterTimes = append(stats.IterTimes, d)
		// Welford's online mean/variance update.
		n := float64(len(prior) + len(res.PerIteration))
		delta := est - mean
		mean += delta / n
		m2 += delta * (est - mean)
		if e.cfg.OnIteration != nil {
			e.cfg.OnIteration(i, est, time.Since(m.start))
		}
	}
	// The Welford accumulator above decides WHEN to stop (mirroring
	// shard.StopIndex exactly, so stop indices agree across tiers), but
	// the reported summary is recomputed with the fixed path's two-pass
	// formula over prior+fresh: the two disagree in the last ulp, and an
	// adaptive run's Estimate/StdErr must be bit-identical to a fixed
	// run of the same length (the cache serves them interchangeably).
	res.Estimate, res.StdErr = summarize(prior, res.PerIteration)
	stats.Iterations = len(res.PerIteration)
	return e.finish(ctx, m, res, stats)
}
