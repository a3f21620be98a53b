package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	fascia "repro"
	"repro/internal/part"
	"repro/internal/serve"
	"repro/internal/shard"
)

// The sharded workload's query: U5-1 on BA(20000,4), shardIters
// iterations, no_cache, with a fresh seed block per query out of
// shardSeeds blocks (cycled), so every iteration crosses the shard tier.
// Four iterations per query (about 90 queries in a 30 s window) keep a
// query's time mostly compute: one-iteration queries were dominated by
// goroutine and socket hand-offs, whose delays on a loaded host moved
// whole runs by a third.
const (
	shardSpec   = "0-1 1-2 2-3 3-4"
	shardIters  = 4
	shardSeeds  = 16
	shardRanks  = 2
	shardProbeN = 8 // iterations of one layer probe
	shardProbes = 3 // repetitions of each layer probe
)

// errNotSharded marks an answer the shard tier did not compute in full.
var errNotSharded = errors.New("not computed by the shard tier")

// shardWorker is one in-process shard worker on a counted listener.
type shardWorker struct {
	w    *shard.Worker
	done chan struct{}
}

// shardedWorkload is the serve tier plus two shard workers on loopback
// TCP: the only workload that runs the shard wire and the rank kernel.
type shardedWorkload struct {
	nproc   int
	g       *fascia.Graph
	t       *fascia.Template
	hash    uint64
	seed    int64
	svc     *service
	workers []shardWorker
	wire    atomic.Int64 // bytes through the workers' listeners
	ref     []float64
}

func (w *shardedWorkload) sloLimit() time.Duration { return 2 * time.Second }

func (w *shardedWorkload) setup(seed int64, tr *tracer) error {
	id := tr.newJob()
	w.seed = seed * 7919
	gen(tr, id, "sharded", func() { w.g = fascia.BarabasiAlbert(20000, 4, seed) })
	t, err := fascia.ParseTemplate("query", shardSpec)
	if err != nil {
		return err
	}
	w.t = t
	svc, err := startService(w.nproc, "ba20k", w.g, tr, id)
	if err != nil {
		return err
	}
	w.svc = svc
	_, info, _ := svc.srv.Registry().Get("ba20k")
	w.hash = info.Hash
	for r := 0; r < shardRanks; r++ {
		// Each worker holds its own copy of the graph, as a separate
		// process would.
		var g *fascia.Graph
		gen(tr, id, "sharded", func() { g = fascia.BarabasiAlbert(20000, 4, seed) })
		sp := tr.begin(id, -1, "shard.register", "")
		err := w.startWorker(g)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// startWorker starts a shard worker holding g and registers it with the
// server's pool.
func (w *shardedWorkload) startWorker(g *fascia.Graph) error {
	sw := shard.NewWorker(shard.WorkerOptions{})
	if h := sw.AddGraph(g); h != w.hash {
		sw.Close()
		return fmt.Errorf("worker graph hash %x, server has %x", h, w.hash)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sw.Close()
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sw.Serve(countingListener{Listener: ln, n: &w.wire}) // returns nil once closed
	}()
	w.workers = append(w.workers, shardWorker{w: sw, done: done})
	w.svc.srv.Pool().Register(ln.Addr().String(), []uint64{w.hash})
	return nil
}

func (w *shardedWorkload) teardown() {
	if w.svc != nil {
		w.svc.close()
		w.svc = nil
	}
	for _, sw := range w.workers {
		sw.w.Close()
		<-sw.done
	}
	w.workers, w.g = nil, nil
}

func (w *shardedWorkload) references(*tracer) error {
	res, err := fascia.Count(w.g, w.t, referenceOptions(w.seed, shardSeeds*shardIters))
	if err != nil {
		return err
	}
	w.ref = res.PerIteration
	return nil
}

func (w *shardedWorkload) window(d time.Duration, tr *tracer, rec *recorder) {
	jobs := []job{{name: "ba20k-U5-1", run: w.runJob}}
	closedLoop("sharded", d, jobs, tr, rec, 1)
}

// runJob is one sharded query: block round mod shardSeeds of the seed
// stream, answered in full by the shard tier.
func (w *shardedWorkload) runJob(tr *tracer, id int64, parent, round int) (int, error) {
	lo := (round % shardSeeds) * shardIters
	res, err := w.svc.count(tr, id, parent, serve.CountRequest{
		Graph: "ba20k", Template: shardSpec, Iterations: shardIters, Seed: w.seed + int64(lo), NoCache: true,
	})
	if err != nil {
		return 0, err
	}
	sp := tr.begin(id, parent, "check", "")
	defer tr.end(sp)
	if err := checkResponse(res.resp, w.ref, lo, shardIters); err != nil {
		return 0, err
	}
	if res.resp.ShardIterations != shardIters {
		return 0, fmt.Errorf("%w: %d of %d iterations", errNotSharded, res.resp.ShardIterations, shardIters)
	}
	return res.resp.Iterations, nil
}

// layers times the same query three ways — the local engine, the
// in-process rank DP and the shard pool over TCP — and reports the
// pool's modelled and measured communication.
func (w *shardedWorkload) layers(m metrics, rec *recorder, tr *tracer) {
	m.set("graph.sharded.csr_mb", mib(csrBytes(w.g)), "MiB")
	m.set("shard.worker_register_ms", ms(tr.total("shard.register", ""))/shardRanks, "ms")
	var comm, msgs, frames []float64
	var wire int64
	probes := []struct {
		name string
		run  func() (float64, int, error)
	}{
		{"dp.local", func() (float64, int, error) {
			r, err := fascia.Count(w.g, w.t, fascia.DefaultOptions().WithThreads(w.nproc).WithSeed(w.seed).WithIterations(shardProbeN))
			return r.Count, r.Iterations, err
		}},
		{"dist.inproc", func() (float64, int, error) {
			r, err := fascia.CountDistributed(w.g, w.t, shardRanks, fascia.DefaultOptions().WithSeed(w.seed).WithIterations(shardProbeN))
			return r.Count, len(r.PerIteration), err
		}},
		{"shard.pool", func() (float64, int, error) {
			before := w.wire.Load()
			out, err := w.svc.srv.Pool().Count(context.Background(), shard.Query{
				GraphHash: w.hash, GraphN: w.g.N(), Template: w.t, Strategy: part.OneAtATime,
				Seed: w.seed, Iterations: shardProbeN,
			})
			wire += w.wire.Load() - before
			n := float64(len(out.PerIteration))
			comm = append(comm, mib(out.CommBytes)/n)
			msgs = append(msgs, float64(out.Messages)/n)
			if out.Groups > 0 {
				frames = append(frames, float64(out.GroupedFrames)/float64(out.Groups))
			}
			return prefixMean(out.PerIteration), len(out.PerIteration), err
		}},
	}
	for _, p := range probes {
		for i := 0; i < shardProbes; i++ {
			id := tr.newJob()
			root := tr.begin(id, -1, "sharded.probe", p.name)
			sp := tr.begin(id, root, p.name, "")
			t0 := time.Now()
			count, n, err := p.run()
			lat := time.Since(t0)
			tr.end(sp)
			if err == nil {
				err = checkEstimate(count, n, w.ref, 0, shardProbeN)
			}
			tr.end(root)
			if err != nil {
				fmt.Printf("perfbench: probe %s: %v\n", p.name, err)
			}
			rec.add(sample{kind: p.name, lat: lat, iters: n, ok: err == nil})
		}
		m.set(p.name+"_ms_per_iter", median(tr.durations(p.name, ""))/shardProbeN, "ms")
	}
	m.set("shard.comm_mb_per_iter", median(comm), "MiB")
	m.set("shard.wire_mb_per_iter", mib(wire)/float64(shardProbes*shardProbeN), "MiB")
	m.set("shard.messages_per_iter", median(msgs), "count")
	m.set("shard.frames_per_group", median(frames), "count")
	m.set("shard.redispatches", float64(w.svc.srv.Stats().ShardRedispatches), "count")
}
