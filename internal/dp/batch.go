package dp

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comb"
	"repro/internal/part"
	"repro/internal/table"
)

// batchState runs L independent color-coding iterations ("lanes")
// through ONE bottom-up DP traversal: per-vertex colors widen to
// lane-strided vectors, table cells widen to [L]float64 lane blocks
// (table.Multi), and every computeNode pass walks the adjacency and
// enumerates the (Ca, Cp) splits once per batch instead of once per
// iteration. Lane j colors with seed base+j, and counts are
// integer-valued float64s, so per-lane totals are bit-identical to L
// one-lane traversals. It is the only DP state: a single iteration is a
// one-lane batch, whose lane-strided colors and tables are exactly the
// flat ones, and the bag DP (bag.go) runs on the same one-lane state.
type batchState struct {
	e *Engine
	// arena is the worker slot's slab recycler all of this state's
	// tables and colors come from and return to.
	arena *table.Arena
	lanes int
	// colors is the lane-strided coloring: lane j of vertex v is
	// colors[v*lanes+j].
	colors []int8
	tabs   map[*part.Node]*table.Multi
	// leaves holds the implicit lane tables of non-root leaves: their
	// cells derive from the coloring (leafLanes), so nothing is
	// allocated or initialized for them.
	leaves    map[*part.Node]*leafLanes
	remaining map[*part.Node]int
	liveBytes int64
	peakBytes int64
	workers   int
	// keep retains every node's table, leaves materialized, plus the
	// coloring, and installs them as the engine's kept tables for
	// embedding sampling (KeepTables; always a one-lane state).
	keep bool
	// keepRoot retains only the root table in tabs for the caller to
	// read and release (per-vertex rooted counts).
	keepRoot bool

	// stop, when non-nil, is the cancellation flag armed by the run's
	// context watcher. DP loops poll it at vertex granularity.
	stop *atomic.Bool
	// aborted records that the traversal was cut short; its totals are
	// meaningless and its tables have been released.
	aborted bool
	// totals holds the per-lane colorful mapping totals after run.
	totals []float64
	// nodeTimes, when non-nil, accumulates per-node wall time in tree
	// evaluation order (nil skips the clock calls).
	nodeTimes []time.Duration

	rowsAllocated, rowsReleased     int64
	tablesAllocated, tablesReleased int64
}

// scratch is the per-worker reusable buffer space, pooled on the Engine
// so it is reused across nodes, workers, and iterations. Every row
// buffer is sized to the engine's widest table times its lane count.
type scratch struct {
	buf      []float64 // output rows, nc*B
	actRow   []float64 // materialized active lane row (hash fallback)
	pasRow   []float64 // materialized passive lane row (hash fallback)
	agg      []float64 // aggregated neighbor lane rows, ncP*B
	colorAgg []float64 // per-(color, lane) neighbor sums, k*B
	avB      []float64 // per-lane active root-cell values, B
	// kernel-choice tallies (in lane units, so counts do not depend on
	// the batch width), flushed on putScratch.
	directN int64
	aggN    int64
}

func (e *Engine) getScratch() *scratch {
	return e.scratchPool.Get().(*scratch)
}

func (e *Engine) putScratch(sc *scratch) {
	if sc.directN != 0 {
		e.kernelDirect.Add(sc.directN)
		sc.directN = 0
	}
	if sc.aggN != 0 {
		e.kernelAggregate.Add(sc.aggN)
		sc.aggN = 0
	}
	e.scratchPool.Put(sc)
}

// newBatchState prepares a batch of lanes colorings on worker slot
// slot's arena: lane j is colored by rand.NewSource(baseSeed+j) drawing
// the per-vertex stream in original vertex-id order, so iteration i of
// any schedule sees the same coloring.
func (e *Engine) newBatchState(slot int, baseSeed int64, lanes, workers int) *batchState {
	n := e.g.N()
	arena := e.arena(slot)
	st := &batchState{
		e:         e,
		arena:     arena,
		lanes:     lanes,
		colors:    arena.I8(n * lanes),
		tabs:      map[*part.Node]*table.Multi{},
		leaves:    map[*part.Node]*leafLanes{},
		remaining: map[*part.Node]int{},
		workers:   workers,
		keep:      e.cfg.KeepTables,
		totals:    make([]float64, lanes),
	}
	for j := 0; j < lanes; j++ {
		rng := rand.New(rand.NewSource(baseSeed + int64(j)))
		if e.ord != nil {
			// Degree-bucketed execution order: draw the stream in
			// ORIGINAL vertex-id order (the exact per-vertex sequence an
			// unreordered run consumes) and scatter through the
			// permutation, so every original vertex keeps its color and
			// the estimate stream stays bit-identical.
			perm := e.ord.Perm
			for v := 0; v < n; v++ {
				st.colors[int(perm[v])*lanes+j] = int8(rng.Intn(e.k))
			}
		} else {
			for v := 0; v < n; v++ {
				st.colors[v*lanes+j] = int8(rng.Intn(e.k))
			}
		}
	}
	if e.tree != nil {
		for _, nd := range e.tree.Nodes {
			st.remaining[nd] = nd.Consumers
		}
	}
	return st
}

func (st *batchState) cancelled() bool {
	return st.stop != nil && st.stop.Load()
}

// run executes the bottom-up DP once for all lanes and fills st.totals
// with the per-lane colorful mapping totals. On cancellation it releases
// everything, marks the state aborted, and returns early — the caller
// must discard the whole batch.
func (st *batchState) run() {
	e := st.e
	if e.bag != nil {
		st.totals[0] = st.runBag()
		return
	}
	for ni, n := range e.tree.Order {
		if st.cancelled() {
			st.abort()
			return
		}
		var nodeStart time.Time
		if st.nodeTimes != nil {
			nodeStart = time.Now()
		}
		if n.IsLeaf() && n != e.tree.Root && !st.keep {
			// Implicit leaf: cells derive from the coloring via
			// leafLanes — no leaf table to allocate, fill, or stream
			// through the child kernels.
			st.leaves[n] = st.newLeafLanes(n)
			if st.nodeTimes != nil {
				st.nodeTimes[ni] += time.Since(nodeStart)
			}
			continue
		}
		nc := int(comb.Binomial(e.k, n.Size()))
		tab := table.NewMulti(e.cfg.TableKind, e.g.N(), nc, st.lanes, st.arena)
		st.tabs[n] = tab
		if n.IsLeaf() {
			st.initLeaf(n, tab)
		} else {
			st.computeNode(n, tab)
		}
		if st.nodeTimes != nil {
			st.nodeTimes[ni] += time.Since(nodeStart)
		}
		st.tablesAllocated++
		st.rowsAllocated += tab.Rows()
		if st.cancelled() {
			// The pass aborted mid-node; the table is partial garbage.
			st.abort()
			return
		}
		st.liveBytes += tab.Bytes()
		if st.liveBytes > st.peakBytes {
			st.peakBytes = st.liveBytes
		}
		if !n.IsLeaf() {
			st.releaseChildren(n)
		}
	}
	root := st.tabs[e.tree.Root]
	root.Totals(st.totals)
	switch {
	case st.keep:
		e.installKept(st)
		return
	case st.keepRoot:
	default:
		st.rowsReleased += root.Rows()
		st.tablesReleased++
		root.Release()
		delete(st.tabs, e.tree.Root)
	}
	st.recycleColors()
}

// recycleColors hands the coloring back to the engine arena; the
// implicit leaves alias it, so they go with it.
func (st *batchState) recycleColors() {
	st.arena.PutI8(st.colors)
	st.colors = nil
	st.leaves = nil
}

// release drops every table still held (after a keepRoot read).
func (st *batchState) release() {
	//lint:maporder ok — release-only loop: the stats it folds are commutative integer sums
	for n, tab := range st.tabs {
		st.rowsReleased += tab.Rows()
		st.tablesReleased++
		tab.Release()
		delete(st.tabs, n)
	}
	st.liveBytes = 0
}

// abort releases every live table after a cancellation and marks the
// batch as discarded.
func (st *batchState) abort() {
	st.aborted = true
	st.release()
	st.recycleColors()
}

func (st *batchState) releaseChildren(n *part.Node) {
	if st.keep {
		return
	}
	for _, ch := range []*part.Node{n.Active, n.Passive} {
		st.remaining[ch]--
		if st.remaining[ch] == 0 {
			if tab, ok := st.tabs[ch]; ok {
				st.liveBytes -= tab.Bytes()
				st.rowsReleased += tab.Rows()
				st.tablesReleased++
				tab.Release()
				delete(st.tabs, ch)
			} else {
				// Implicit leaf: nothing allocated, nothing to release.
				delete(st.leaves, ch)
			}
		}
	}
}

// installKept makes a finished one-lane KeepTables traversal the
// engine's kept state for SampleEmbeddings, releasing the tables of any
// earlier run. Concurrent traversals (outer parallelism) serialize
// here; the last to finish wins.
func (e *Engine) installKept(st *batchState) {
	kept := make(map[*part.Node]table.Table, len(st.tabs))
	//lint:maporder ok — map-to-map copy: insertion order cannot affect any estimate
	for n, tab := range st.tabs {
		kept[n] = tab.Table()
	}
	e.keptMu.Lock()
	defer e.keptMu.Unlock()
	e.releaseKeptLocked()
	e.kept = kept
	e.keptColors = st.colors
	e.keptArena = st.arena
	st.tabs = nil
	st.colors = nil
	st.leaves = nil
}

// initLeaf fills a leaf's lane table: vertex v holds count 1 for the
// singleton color set {color_j(v)} in lane j, but only when v's graph
// label matches the leaf's template label (Algorithm 2, line 4, plus
// the labeled pruning of §V-A).
func (st *batchState) initLeaf(n *part.Node, tab *table.Multi) {
	e := st.e
	L := st.lanes
	labeled := e.t.Labeled()
	var want int32
	if labeled {
		want = e.t.Label(n.LeafVertex())
	}
	for v := int32(0); v < int32(e.g.N()); v++ {
		if labeled && e.g.Label(v) != want {
			continue
		}
		base := int(v) * L
		for j := 0; j < L; j++ {
			// The combinatorial index of the singleton {c} is c itself.
			tab.Set(v, int32(st.colors[base+j]), j, 1)
		}
	}
}

// batchCtx binds a node's kernel shape to this batch's lane tables
// (materialized Multi for internal children, implicit leafLanes for leaf
// children).
type batchCtx struct {
	kernelShape
	act, pas laneTab
}

// laneTabFor resolves a child node to its lane-table read surface.
func (st *batchState) laneTabFor(n *part.Node) laneTab {
	if tab, ok := st.tabs[n]; ok {
		return tab
	}
	return st.leaves[n]
}

func (st *batchState) batchContext(n *part.Node, tab *table.Multi) *batchCtx {
	return &batchCtx{
		kernelShape: st.e.kernelShapeFor(n, tab.NumSets()),
		act:         st.laneTabFor(n.Active),
		pas:         st.laneTabFor(n.Passive),
	}
}

// computeNode fills an internal node's lane table from its children's
// (Algorithm 2, lines 7-15), sharding vertices across workers.
//
// Workers never read the table being written (vertex passes read only
// the children's completed tables), so for layouts that are unsafe for
// concurrent writers (Hash) each worker fills a private staging table
// lock-free and the stagings are merged after the barrier — no global
// store mutex serializing the workers.
func (st *batchState) computeNode(n *part.Node, tab *table.Multi) {
	e := st.e
	ctx := st.batchContext(n, tab)
	nVerts := int32(e.g.N())

	if st.workers <= 1 {
		sc := e.getScratch()
		for v := int32(0); v < nVerts; v++ {
			if st.cancelled() {
				break
			}
			st.vertexPass(ctx, tab, v, sc)
		}
		e.putScratch(sc)
		return
	}

	stage := tab.IsHash()
	var stagings []*table.Multi
	if stage {
		stagings = make([]*table.Multi, st.workers)
	}
	chunk := chunkFor(int(nVerts), st.workers)
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < st.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			target := tab
			if stage {
				s := table.NewMulti(table.Hash, int(nVerts), ctx.nc, st.lanes, st.arena)
				stagings[w] = s
				target = s
			}
			sc := e.getScratch()
			defer e.putScratch(sc)
			for {
				if st.cancelled() {
					return
				}
				start := next.Add(int32(chunk)) - int32(chunk)
				if start >= nVerts {
					return
				}
				end := start + int32(chunk)
				if end > nVerts {
					end = nVerts
				}
				for v := start; v < end; v++ {
					if st.cancelled() {
						return
					}
					st.vertexPass(ctx, target, v, sc)
				}
			}
		}(w)
	}
	wg.Wait()
	if stage {
		for _, s := range stagings {
			if s != nil {
				tab.MergeFrom(s)
				s.Release()
			}
		}
	}
}

// chunkOverride, when positive, pins the work-stealing chunk size — a
// benchmark knob for comparing against the historical constant (512).
// Set it only while no DP pass is running.
var chunkOverride int

// chunkFor sizes the work-stealing chunks of the inner-parallel vertex
// loop. The historical constant 512 under-splits small graphs (a worker
// can end up with one giant chunk while others idle) and over-splits
// huge ones (atomic contention on the shared cursor). Targeting ~8
// chunks per worker balances stealing granularity against cursor
// traffic, with a floor that keeps per-chunk overhead negligible and a
// ceiling that preserves stealing on degree-skewed graphs, where one
// chunk of hubs can cost many times a chunk of leaves.
func chunkFor(nVerts, workers int) int {
	if chunkOverride > 0 {
		return chunkOverride
	}
	const (
		chunksPerWorker = 8
		minChunk        = 64
		maxChunk        = 4096
	)
	c := nVerts / (workers * chunksPerWorker)
	if c < minChunk {
		return minChunk
	}
	if c > maxChunk {
		return maxChunk
	}
	return c
}
