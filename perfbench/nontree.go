package main

import (
	"fmt"
	"math"
	"time"

	fascia "repro"
)

// nontreeJob is one non-tree template counted by the bag DP. Job round r
// runs the single iteration seeded seed+r mod rounds, so the references
// are one run of rounds iterations.
type nontreeJob struct {
	name   string
	t      *fascia.Template
	seed   int64
	rounds int
	ref    fascia.Result
	traced []fascia.Result
}

// nontreeWorkload runs the tree-decomposition (bag) DP on BA(10000,4):
// the tree kernels do no work here.
type nontreeWorkload struct {
	g    *fascia.Graph
	jobs []*nontreeJob
}

// nontreeSpecs are the templates, with the seed count each job cycles.
// paw and c4 get enough seeds for the 6σ check against the exact count:
// the check's σ is estimated from those seeds, and with 4 c4 seeds 3 of
// 50 graph seeds put the reference beyond 4σ, with 8 none beyond 2.5σ.
// tailed6 is checked against the cactus engine instead.
var nontreeSpecs = []struct {
	name, spec string
	rounds     int
}{
	{"paw", "paw", 8},
	{"c4", "c4", 8},
	{"tailed6", "0-1 1-2 2-0 2-3 3-4 4-5", 2},
}

func (w *nontreeWorkload) sloLimit() time.Duration { return 5 * time.Second }

func (w *nontreeWorkload) setup(seed int64, tr *tracer) error {
	gen(tr, tr.newJob(), "nontree", func() { w.g = fascia.BarabasiAlbert(10000, 4, seed) })
	w.jobs = nil
	for i, s := range nontreeSpecs {
		t, err := fascia.ParseGraphTemplate(s.name, s.spec)
		if err != nil {
			return err
		}
		w.jobs = append(w.jobs, &nontreeJob{name: s.name, t: t, seed: seed*7919 + int64(i)*1000, rounds: s.rounds})
	}
	return nil
}

func (w *nontreeWorkload) teardown() { w.g, w.jobs = nil, nil }

// references computes each template's reference stream, checks paw and
// c4 against the exact motif count within 6σ, and checks tailed6 bit for
// bit against the triangle-cactus engine.
func (w *nontreeWorkload) references(tr *tracer) error {
	for _, j := range w.jobs {
		res, err := fascia.Count(w.g, j.t, referenceOptions(j.seed, j.rounds))
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		j.ref = res
		switch j.name {
		case "paw", "c4":
			exact, err := fascia.ExactMotifCount(w.g, j.name)
			if err != nil {
				return err
			}
			sigma := math.Max(res.StdErr, modelStdErr(float64(exact), j.t.K(), j.rounds))
			if dev := math.Abs(res.Count - float64(exact)); dev > 6*sigma {
				return fmt.Errorf("%s: reference %v is %.1fσ from the exact count %d", j.name, res.Count, dev/sigma, exact)
			}
		case "tailed6":
			id := tr.newJob()
			s := tr.begin(id, -1, "cactus.count", j.name)
			cres, err := fascia.CountCactus(w.g, fascia.TailedTriangleTemplate(3), fascia.DefaultOptions().WithSeed(j.seed).WithIterations(j.rounds))
			tr.end(s)
			if err != nil {
				return err
			}
			if math.Float64bits(cres.Count) != math.Float64bits(res.Count) {
				return fmt.Errorf("tailed6: bag DP %v, cactus engine %v: %w", res.Count, cres.Count, errMismatch)
			}
		}
	}
	return nil
}

// modelStdErr is the standard error of an n-iteration color-coding mean
// if the template's occurrences were colored independently:
// sqrt(N(1-p)/p/n) with p = k!/k^k. Overlapping occurrences only add
// variance, so it floors a standard error estimated from few iterations.
func modelStdErr(exact float64, k, n int) float64 {
	p := 1.0
	for i := 1; i <= k; i++ {
		p *= float64(i) / float64(k)
	}
	return math.Sqrt(exact * (1 - p) / p / float64(n))
}

func (w *nontreeWorkload) window(d time.Duration, tr *tracer, rec *recorder) {
	jobs := make([]job, len(w.jobs))
	for i, j := range w.jobs {
		j := j
		jobs[i] = job{name: j.name, run: func(t *tracer, id int64, parent, round int) (int, error) {
			return w.runJob(j, t, id, parent, round)
		}}
	}
	closedLoop("nontree", d, jobs, tr, rec, 1)
}

func (w *nontreeWorkload) runJob(j *nontreeJob, tr *tracer, id int64, parent, round int) (int, error) {
	r := round % j.rounds
	s := tr.begin(id, parent, "bag.count", j.name)
	res, err := fascia.Count(w.g, j.t, fascia.DefaultOptions().WithSeed(j.seed+int64(r)).WithIterations(1))
	tr.end(s)
	s = tr.begin(id, parent, "check", j.name)
	defer tr.end(s)
	if err != nil {
		return 0, err
	}
	if err := checkEstimate(res.Count, res.Iterations, j.ref.PerIteration, r, 1); err != nil {
		return 0, err
	}
	if tr != nil {
		j.traced = append(j.traced, res)
	}
	return res.Iterations, nil
}

func (w *nontreeWorkload) layers(m metrics, _ *recorder, tr *tracer) {
	m.set("graph.nontree.csr_mb", mib(csrBytes(w.g)), "MiB")
	for _, j := range w.jobs {
		var peak []float64
		for _, r := range j.traced {
			peak = append(peak, mib(r.PeakTableBytes))
		}
		m.set("bag."+j.name+".ms_per_iter", median(tr.durations("bag.count", j.name)), "ms")
		m.set("bag."+j.name+".peak_mb", median(peak), "MiB")
		if j.name == "tailed6" {
			m.set("cactus.tailed6.ms_per_iter", ms(tr.total("cactus.count", j.name))/float64(j.rounds), "ms")
		}
	}
}
