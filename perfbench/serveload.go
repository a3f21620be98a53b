package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	fascia "repro"
	"repro/internal/serve"
)

// The serve workload's load: an open loop at serveRate queries per
// second over a small key space, sent on at most nproc connections. Set-up
// warms the server with a 1-iteration query of key 0. Each other key is
// introduced at an evenly spaced point of the schedule by a 1-iteration
// query (a miss), and every key is later extended by a 2-iteration one
// (a partial hit). The queries between ask 1 or 2 iterations of an
// introduced key (hits), and every bypassEvery-th is a 1-iteration
// no_cache query of a U5 template.
const (
	serveRate    = 24.0
	bypassEvery  = 10
	serveSeeds   = 2
	serveMaxIter = 2
	serveSLO     = time.Second
	// hitLag is how many queries after its introducing event a key
	// takes hits, so they do not race the query that fills the cache.
	hitLag = 8
)

// serveTemplates are the query templates, as edge-list specs.
var serveTemplates = []struct{ name, spec string }{
	{"U5-1", "0-1 1-2 2-3 3-4"},
	{"U5-2", "0-1 1-2 0-3 0-4"},
	{"U7-2", "0-1 1-2 0-3 3-4 0-5 5-6"},
}

// serveKey is one cache key of the key space with its reference stream.
type serveKey struct {
	spec string
	seed int64
	ref  []float64
}

// serveReq is one scheduled query.
type serveReq struct {
	due     time.Duration
	key     int
	iters   int
	noCache bool
}

// serveOutcome is what one answered query reports.
type serveOutcome struct {
	class     string // hit, partial, miss, bypass
	elapsedMs float64
	rttMs     float64
	late      time.Duration
	iters     int
	cached    int
	status    int
}

// serveWorkload drives an in-process serve.Server with BA(50000,4)
// registered: cache, admission and scheduler carry this load.
type serveWorkload struct {
	nproc int
	seed  int64
	g     *fascia.Graph
	svc   *service
	keys  []serveKey
	warm  countResult

	mu       sync.Mutex
	outcomes []serveOutcome
	queueMax int64
	win      time.Duration
	before   serve.Stats
	after    serve.Stats
}

func (w *serveWorkload) sloLimit() time.Duration { return serveSLO }

func (w *serveWorkload) setup(seed int64, tr *tracer) error {
	w.seed = seed
	id := tr.newJob()
	gen(tr, id, "serve", func() { w.g = fascia.BarabasiAlbert(50000, 4, seed) })
	svc, err := startService(w.nproc, "ba50k", w.g, tr, id)
	if err != nil {
		return err
	}
	w.svc = svc
	w.keys = nil
	for i, t := range serveTemplates {
		for s := 0; s < serveSeeds; s++ {
			w.keys = append(w.keys, serveKey{spec: t.spec, seed: seed*7919 + int64(i*100+s)})
		}
	}
	// Warm-up: key 0 enters the cache; references checks the answer.
	w.warm, err = svc.count(nil, 0, -1, serve.CountRequest{
		Graph: "ba50k", Template: w.keys[0].spec, Iterations: 1, Seed: w.keys[0].seed,
	})
	if err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}
	return nil
}

func (w *serveWorkload) teardown() {
	if w.svc != nil {
		w.svc.close()
		w.svc = nil
	}
	w.g = nil
}

func (w *serveWorkload) references(*tracer) error {
	for i := range w.keys {
		k := &w.keys[i]
		t, err := fascia.ParseTemplate("query", k.spec)
		if err != nil {
			return err
		}
		res, err := fascia.Count(w.g, t, referenceOptions(k.seed, serveMaxIter))
		if err != nil {
			return err
		}
		k.ref = res.PerIteration
	}
	if err := checkResponse(w.warm.resp, w.keys[0].ref, 0, 1); err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}
	return nil
}

// schedule draws the window's queries from the workload seed. Arrivals
// are evenly spaced with a seeded jitter of up to a quarter period, so
// every run offers the same number and mix of queries without the
// bursts a Poisson process would add to the latency tail.
func (w *serveWorkload) schedule(d time.Duration) []serveReq {
	rng := rand.New(rand.NewSource(w.seed*31 + 17))
	n := int(serveRate * d.Seconds())
	period := float64(time.Second) / serveRate
	due := make([]float64, n)
	for i := range due {
		due[i] = (float64(i) + 0.5 + (rng.Float64()-0.5)/2) * period
	}
	// Events: the misses of keys 1.. and the partial hits of every key,
	// in a seeded order with each key's miss before its partial, spread
	// evenly over the window.
	var events []serveReq
	for _, k := range rng.Perm(len(w.keys)) {
		if k != 0 {
			events = append(events, serveReq{key: k, iters: 1})
		}
		events = append(events, serveReq{key: k, iters: serveMaxIter})
	}
	at := map[int]serveReq{}
	for e, ev := range events {
		at[e*n/len(events)] = ev
	}
	introduced, extended := []int{0}, []int(nil)
	out := make([]serveReq, n)
	for i, t := range due {
		if ev, ok := at[i-hitLag]; ok {
			if ev.iters == 1 {
				introduced = append(introduced, ev.key)
			} else {
				extended = append(extended, ev.key)
			}
		}
		r, isEvent := at[i]
		switch {
		case isEvent:
		case i%bypassEvery == bypassEvery/2:
			r = serveReq{key: (i/bypassEvery%2)*serveSeeds + rng.Intn(serveSeeds), iters: 1, noCache: true}
		case len(extended) > 0 && rng.Intn(2) == 1:
			r = serveReq{key: extended[rng.Intn(len(extended))], iters: serveMaxIter}
		default:
			r = serveReq{key: introduced[rng.Intn(len(introduced))], iters: 1}
		}
		r.due = time.Duration(t)
		out[i] = r
	}
	return out
}

func (w *serveWorkload) window(d time.Duration, tr *tracer, rec *recorder) {
	reqs := w.schedule(d)
	w.outcomes, w.queueMax, w.win = nil, 0, d
	w.before = w.svc.srv.Stats()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if q := w.svc.srv.Stats().Queued; q > w.queueMax {
					w.queueMax = q
				}
			}
		}
	}()
	rec.begin(false)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				var t *tracer
				if i%2 == 0 {
					t = tr
				}
				w.send(reqs[i], start, t, rec)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	w.after = w.svc.srv.Stats()
}

// send issues one scheduled query at its due time and records it; its
// latency counts from the due time.
func (w *serveWorkload) send(r serveReq, start time.Time, tr *tracer, rec *recorder) {
	due := start.Add(r.due)
	time.Sleep(time.Until(due))
	late := time.Since(due)
	k := w.keys[r.key]
	id := tr.newJob()
	root := tr.begin(id, -1, "serve.job", "")
	res, err := w.svc.count(tr, id, root, serve.CountRequest{
		Graph: "ba50k", Template: k.spec, Iterations: r.iters, Seed: k.seed, NoCache: r.noCache,
	})
	if err == nil {
		sp := tr.begin(id, root, "check", "")
		err = checkResponse(res.resp, k.ref, 0, r.iters)
		tr.end(sp)
	}
	tr.end(root)
	lat := time.Since(due)
	class := res.resp.Cache
	if class == "" {
		class = "error"
	}
	w.mu.Lock()
	w.outcomes = append(w.outcomes, serveOutcome{
		class: class, elapsedMs: res.resp.ElapsedMillis, rttMs: ms(res.rtt), late: late,
		iters: res.resp.Iterations, cached: res.resp.CachedIterations, status: res.status,
	})
	w.mu.Unlock()
	rec.add(sample{kind: class, lat: lat, iters: res.resp.Iterations, ok: err == nil, traced: tr != nil})
}

func (w *serveWorkload) layers(m metrics, _ *recorder, tr *tracer) {
	m.set("graph.serve.csr_mb", mib(csrBytes(w.g)), "MiB")
	m.set("serve.registry_add_ms", ms(tr.total("serve.registry_add", "ba50k")), "ms")
	byClass := map[string][]float64{}
	var overhead, late []float64
	iters, cached, rejected := 0, 0, 0
	for _, o := range w.outcomes {
		if o.status == 429 {
			rejected++
		}
		if o.status != 200 {
			continue
		}
		byClass[o.class] = append(byClass[o.class], o.elapsedMs)
		overhead = append(overhead, o.rttMs-o.elapsedMs)
		late = append(late, ms(o.late))
		iters += o.iters
		cached += o.cached
	}
	for _, c := range []string{"hit", "partial", "miss", "bypass"} {
		m.set("serve.server_ms_p50."+c, median(byClass[c]), "ms")
	}
	m.set("serve.http_overhead_ms_p50", median(overhead), "ms")
	cb, ca := w.before.Cache, w.after.Cache
	hits := ca.Hits - cb.Hits
	lookups := hits + ca.PartialHits - cb.PartialHits + ca.Misses - cb.Misses
	m.set("serve.cache_hit_ratio", float64(hits)/float64(lookups), "ratio")
	m.set("serve.cached_iter_ratio", float64(cached)/float64(iters), "ratio")
	m.set("serve.rejected_ratio", float64(rejected)/float64(len(w.outcomes)), "ratio")
	m.set("serve.queue_depth_max", float64(w.queueMax), "count")
	m.set("serve.fresh_iter_per_s", float64(iters-cached)/w.win.Seconds(), "1/s")
	m.set("loadgen.late_ms_p99", quantile(late, 0.99), "ms")
}
