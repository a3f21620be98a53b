package main

import (
	"fmt"
	"math"
	"time"

	fascia "repro"
	"repro/internal/comb"
	"repro/internal/part"
)

// treeIters is the iteration count of one tree job.
const treeIters = 2

// sweepIters is the iteration count of the knob sweep's batched
// configurations (a batch of 8 lanes needs 8 iterations).
const sweepIters = 8

// treeJob is one (graph, tree template) counting job.
type treeJob struct {
	name string
	g    *fascia.Graph
	t    *fascia.Template
	seed int64
	ref  []float64 // reference per-iteration estimates
	// traced holds the results of the traced rounds (per-layer input).
	traced []fascia.Result
	// gathered is the computed passive-row bytes one iteration gathers;
	// iterMs the traced median iteration time.
	gathered int64
	iterMs   float64
}

// treeWorkload is the paper's core workload: NewEngine + Run of tree
// templates on 100k-vertex graphs, one caller, round-robin.
type treeWorkload struct {
	nproc int
	jobs  []*treeJob
}

func (w *treeWorkload) sloLimit() time.Duration { return 5 * time.Second }

func (w *treeWorkload) setup(seed int64, tr *tracer) error {
	id := tr.newJob()
	var ba, er, lab *fascia.Graph
	gen(tr, id, "tree", func() { ba = fascia.BarabasiAlbert(100000, 4, seed) })
	gen(tr, id, "tree", func() { er = fascia.ErdosRenyi(100000, 400000, seed+1) })
	// AssignRandomLabels labels its argument in place, so the labelled
	// job gets its own copy of the BA graph.
	gen(tr, id, "tree", func() { lab = fascia.AssignRandomLabels(fascia.BarabasiAlbert(100000, 4, seed), 4, seed+2) })
	ts, err := treeTemplates()
	if err != nil {
		return err
	}
	w.jobs = nil
	for i, g := range []*fascia.Graph{ba, er, lab} {
		w.jobs = append(w.jobs, &treeJob{name: treeJobNames[i], g: g, t: ts[i], seed: seed*7919 + int64(i)*1000})
	}
	return nil
}

// treeJobNames names the tree jobs; treeTemplates gives their templates
// in the same order.
var treeJobNames = []string{"ba100k-U7-1", "er100k-U7-2", "ba100k-lab4-U7-1"}

func treeTemplates() ([]*fascia.Template, error) {
	p7, err := fascia.NewTemplate("U7-1", 7, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}, []int32{0, 1, 2, 3, 0, 1, 2})
	if err != nil {
		return nil, err
	}
	return []*fascia.Template{fascia.MustTemplate("U7-1"), fascia.MustTemplate("U7-2"), p7}, nil
}

// partitionTree rebuilds the partition tree the engine uses under
// default options, to name and size its nodes.
func partitionTree(t *fascia.Template) (*part.Tree, error) {
	return part.BuildRooted(t, part.OneAtATime, false, -1)
}

// teardown drops the graphs; the jobs' traced results stay for the
// bandwidth ratios a traced run computes after the triad probe.
func (w *treeWorkload) teardown() {
	for _, j := range w.jobs {
		j.g = nil
	}
}

// references runs the plain single-threaded Inner B=1 engine. A traced
// run needs sweepIters iterations of the first job for the sweep.
func (w *treeWorkload) references(tr *tracer) error {
	for i, j := range w.jobs {
		n := treeIters
		if tr != nil && i == 0 {
			n = sweepIters
		}
		res, err := fascia.Count(j.g, j.t, referenceOptions(j.seed, n))
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		j.ref = res.PerIteration
	}
	return nil
}

// referenceOptions configures the reference engine: one thread, inner
// parallelism, no batching.
func referenceOptions(seed int64, iters int) fascia.Options {
	return fascia.DefaultOptions().WithThreads(1).WithParallel(fascia.ParallelInner).
		WithBatch(1).WithSeed(seed).WithIterations(iters)
}

func (w *treeWorkload) window(d time.Duration, tr *tracer, rec *recorder) {
	jobs := make([]job, len(w.jobs))
	for i, j := range w.jobs {
		j := j
		jobs[i] = job{name: j.name, run: func(t *tracer, id int64, parent, _ int) (int, error) {
			return w.runJob(j, t, id, parent)
		}}
	}
	closedLoop("tree", d, jobs, tr, rec, 1)
}

// runJob is one tree job: build the engine, run it, check the estimate.
func (w *treeWorkload) runJob(j *treeJob, tr *tracer, id int64, parent int) (int, error) {
	opt := fascia.DefaultOptions().WithThreads(w.nproc).WithSeed(j.seed).WithIterations(treeIters)
	s := tr.begin(id, parent, "dp.engine_build", j.name)
	e, err := fascia.NewEngine(j.g, j.t, opt)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin(id, parent, "dp.run", j.name)
	res, err := e.Run(treeIters)
	tr.end(s)
	s = tr.begin(id, parent, "check", j.name)
	defer tr.end(s)
	if err != nil {
		return 0, err
	}
	if err := checkEstimate(res.Count, res.Iterations, j.ref, 0, treeIters); err != nil {
		return 0, err
	}
	if tr != nil {
		j.traced = append(j.traced, res)
	}
	return res.Iterations, nil
}

// checkEstimate compares an estimate over n iterations with the mean of
// ref[lo:lo+n], summed in seed order as every engine and the cache do,
// bit for bit.
func checkEstimate(got float64, gotIters int, ref []float64, lo, n int) error {
	if gotIters != n {
		return fmt.Errorf("%d iterations, want %d", gotIters, n)
	}
	if lo+n > len(ref) {
		return fmt.Errorf("no reference for iterations [%d,%d)", lo, lo+n)
	}
	want := prefixMean(ref[lo : lo+n])
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%w: %v, want %v", errMismatch, got, want)
	}
	return nil
}

// prefixMean sums xs in order and divides, the engines' own expression.
func prefixMean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func (w *treeWorkload) layers(m metrics, rec *recorder, tr *tracer) {
	var csr int64
	for _, j := range w.jobs {
		csr += csrBytes(j.g)
	}
	m.set("graph.tree.csr_mb", mib(csr), "MiB")
	m.set("dp.engine_build_ms", median(tr.durations("dp.engine_build", "")), "ms")
	for _, j := range w.jobs {
		w.jobLayers(m, j)
	}
	w.sweep(m, rec, tr)
}

// jobLayers reports one job's DP and table metrics from its traced
// results (medians over the traced rounds).
func (w *treeWorkload) jobLayers(m metrics, j *treeJob) {
	tree, err := partitionTree(j.t)
	if err != nil {
		fmt.Printf("perfbench: %s partition tree: %v\n", j.name, err)
		return
	}
	k := j.t.K()
	j.gathered = 0
	for _, n := range tree.Order {
		if !n.IsLeaf() {
			// Every vertex reads the passive child's row of each
			// neighbour: C(k, |passive|) 8-byte cells per adjacency.
			j.gathered += 2 * j.g.M() * comb.Binomial(k, n.Passive.Size()) * 8
		}
	}
	var iterMs, cover, agg, peak, arena []float64
	nodeMs := map[int][]float64{}
	for _, r := range j.traced {
		st := r.Stats
		var iterSum time.Duration
		for _, d := range st.IterTimes {
			iterMs = append(iterMs, ms(d))
			iterSum += d
		}
		if iterSum > 0 {
			cover = append(cover, float64(st.NodeTimeTotal())/float64(iterSum))
		}
		if passes := st.KernelDirect + st.KernelAggregate; passes > 0 {
			agg = append(agg, float64(st.KernelAggregate)/float64(passes))
		}
		peak = append(peak, mib(r.PeakTableBytes))
		if req := st.ArenaHits + st.ArenaMisses; req > 0 {
			arena = append(arena, float64(st.ArenaHits)/float64(req))
		}
		for i, n := range st.Nodes {
			if !n.Leaf && r.Iterations > 0 {
				nodeMs[i] = append(nodeMs[i], ms(n.Time)/float64(r.Iterations))
			}
		}
	}
	j.iterMs = median(iterMs)
	p := "dp." + j.name + "."
	m.set(p+"iter_ms_p50", j.iterMs, "ms")
	for _, i := range internalNodes(tree) {
		m.set(fmt.Sprintf("%snode%d_ms_per_iter", p, i), median(nodeMs[i]), "ms")
	}
	m.set(p+"node_cover_ratio", median(cover), "ratio")
	m.set(p+"aggregate_share", median(agg), "ratio")
	p = "table." + j.name + "."
	m.set(p+"peak_mb", median(peak), "MiB")
	m.set(p+"arena_hit_ratio", median(arena), "ratio")
	m.set(p+"gathered_mb_per_iter", mib(j.gathered), "MiB-computed")
}

// internalNodes lists the evaluation-order indices of a partition tree's
// internal nodes.
func internalNodes(tree *part.Tree) []int {
	var out []int
	for i, n := range tree.Order {
		if !n.IsLeaf() {
			out = append(out, i)
		}
	}
	return out
}

// bandwidth reports each job's gathered bytes per second as a share of
// the measured triad bandwidth.
func (w *treeWorkload) bandwidth(m metrics, triadGBs float64) {
	for _, j := range w.jobs {
		bps := float64(j.gathered) / (j.iterMs / 1000)
		m.set("table."+j.name+".bw_fraction", bps/(triadGBs*1e9), "ratio")
	}
}

// sweepConfig is one execution-knob setting of the sweep. Every setting
// must give bit-identical estimates.
type sweepConfig struct {
	name  string
	iters int
	opt   func(fascia.Options) fascia.Options
}

func (w *treeWorkload) sweepConfigs() []sweepConfig {
	n := w.nproc
	return []sweepConfig{
		{"dp.sweep.inner1", treeIters, func(o fascia.Options) fascia.Options {
			return o.WithThreads(1).WithParallel(fascia.ParallelInner)
		}},
		{"dp.sweep.inner2", treeIters, func(o fascia.Options) fascia.Options {
			return o.WithThreads(n).WithParallel(fascia.ParallelInner)
		}},
		{"dp.sweep.outer2", treeIters, func(o fascia.Options) fascia.Options {
			return o.WithThreads(n).WithParallel(fascia.ParallelOuter)
		}},
		{"dp.sweep.hybrid2", treeIters, func(o fascia.Options) fascia.Options {
			return o.WithThreads(n).WithParallel(fascia.ParallelHybrid)
		}},
		{"dp.sweep.batch8", sweepIters, func(o fascia.Options) fascia.Options {
			return o.WithThreads(n).WithBatch(8)
		}},
		{"dp.sweep.batch8_notile", sweepIters, func(o fascia.Options) fascia.Options {
			return o.WithThreads(n).WithBatch(8).WithLLCBytes(-1)
		}},
		{"table.sweep.naive", treeIters, func(o fascia.Options) fascia.Options {
			return o.WithThreads(n).WithTable(fascia.TableNaive)
		}},
		{"table.sweep.hash", treeIters, func(o fascia.Options) fascia.Options {
			return o.WithThreads(n).WithTable(fascia.TableHash)
		}},
		{"table.sweep.succinct", treeIters, func(o fascia.Options) fascia.Options {
			return o.WithThreads(n).WithTable(fascia.TableSuccinct)
		}},
	}
}

// sweep times the first job under each execution knob, after the traced
// window so it does not count in the tracing overhead.
func (w *treeWorkload) sweep(m metrics, rec *recorder, tr *tracer) {
	j := w.jobs[0]
	for _, c := range w.sweepConfigs() {
		id := tr.newJob()
		root := tr.begin(id, -1, "tree.sweep", c.name)
		t0 := time.Now()
		opt := c.opt(fascia.DefaultOptions().WithSeed(j.seed).WithIterations(c.iters))
		e, err := fascia.NewEngine(j.g, j.t, opt)
		var res fascia.Result
		if err == nil {
			s := tr.begin(id, root, "dp.run", c.name)
			res, err = e.Run(c.iters)
			tr.end(s)
		}
		if err == nil {
			err = checkEstimate(res.Count, res.Iterations, j.ref, 0, c.iters)
		}
		tr.end(root)
		if err != nil {
			fmt.Printf("perfbench: sweep %s: %v\n", c.name, err)
		}
		rec.add(sample{kind: c.name, lat: time.Since(t0), iters: c.iters, ok: err == nil})
		runs := tr.durations("dp.run", c.name)
		m.set(c.name+"_ms_per_iter", runs[len(runs)-1]/float64(c.iters), "ms")
	}
}

// gen times one graph-generation call as a graph.gen span.
func gen(tr *tracer, id int64, wl string, f func()) {
	s := tr.begin(id, -1, "graph.gen", wl)
	f()
	tr.end(s)
}

// csrBytes is the CSR footprint of g: int64 offsets, int32 adjacency
// and labels.
func csrBytes(g *fascia.Graph) int64 {
	b := int64(g.N()+1)*8 + 2*g.M()*4
	if g.Labels != nil {
		b += int64(len(g.Labels)) * 4
	}
	return b
}
