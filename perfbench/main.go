// Command perfbench is the repository benchmark. It drives the library
// and the serving tiers from outside, through their public entry points
// (fascia.NewEngine/Engine.Run, fascia.Count, serve.Server over loopback
// HTTP, shard.Pool.Count, fascia.CountDistributed), checks every estimate
// bit for bit against a single-threaded reference computed in the same
// process, and prints its metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload tree --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it runs the named workload untraced and reports the
// end-to-end metrics. With --trace 1 it records its own spans around the
// calls into each layer, runs every workload (the named one for the full
// --seconds, the others for a short window), then the knob sweep and the
// memory-bandwidth probe, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// workload is one benchmark scenario. setup builds the inputs (and any
// services) from the seed and is what setup_s times; references computes
// the reference estimates every timed job is checked against; window
// runs the timed load for d.
type workload interface {
	setup(seed int64, tr *tracer) error
	teardown()
	references(tr *tracer) error
	window(d time.Duration, tr *tracer, rec *recorder)
	// layers adds the per-layer metrics of a traced window to m.
	layers(m metrics, rec *recorder, tr *tracer)
	// sloLimit is the latency limit slo_ok_ratio is measured against.
	sloLimit() time.Duration
}

// workloadNames lists the workloads in the order a traced run visits
// them.
var workloadNames = []string{"tree", "nontree", "serve", "sharded"}

func newWorkload(name string, nproc int) (workload, error) {
	switch name {
	case "tree":
		return &treeWorkload{nproc: nproc}, nil
	case "nontree":
		return &nontreeWorkload{}, nil
	case "serve":
		return &serveWorkload{nproc: nproc}, nil
	case "sharded":
		return &shardedWorkload{nproc: nproc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

const (
	// An untraced run sets its workload up at least setupMinReps times
	// and for at least setupMinTime, at most setupMaxReps times; setup_s
	// is the median, so a set-up of a few milliseconds is still steady.
	setupMinReps = 5
	setupMaxReps = 50
	setupMinTime = 2 * time.Second
	// shortWindow is the traced window of the workloads a traced run
	// was not asked for.
	shortWindow = 3 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload: tree, nontree, serve or sharded")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	outdir := flag.String("outdir", ".bench_build/perfbench", "directory for the span dump")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if _, err := newWorkload(*name, 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var rep report
	var err error
	if *trace == 1 {
		rep, err = tracedRun(*name, *seed, d, *outdir)
	} else {
		rep, err = untracedRun(*name, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// untracedRun measures the end-to-end metrics of one workload.
func untracedRun(name string, seed int64, d time.Duration) (report, error) {
	w, err := newWorkload(name, runtime.NumCPU())
	if err != nil {
		return report{}, err
	}
	var setups []float64
	start := time.Now()
	for i := 0; i < setupMaxReps && (i < setupMinReps || time.Since(start) < setupMinTime); i++ {
		if i > 0 {
			w.teardown()
			releaseMemory()
		}
		t0 := time.Now()
		if err := w.setup(seed, nil); err != nil {
			return report{}, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()
	if err := w.references(nil); err != nil {
		return report{}, fmt.Errorf("%s references: %w", name, err)
	}
	resetPeakRSS()
	rec := newRecorder()
	w.window(d, nil, rec)
	m := endToEnd(rec, median(setups), w.sloLimit())
	attempted, failed := rec.counts()
	fmt.Printf("perfbench: %s seed %d: %d jobs in %.2f s (job_ms_p90 from %d samples), setup_s median of %d\n",
		name, seed, attempted, rec.elapsed().Seconds(), attempted, len(setups))
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// tracedRun runs every workload with spans on and reports the per-layer
// metrics. The named workload gets the full window; the others run a
// short one so every layer is measured in one process.
func tracedRun(name string, seed int64, d time.Duration, outdir string) (report, error) {
	nproc := runtime.NumCPU()
	tr := newTracer()
	m := metrics{}
	attempted, failed := 0, 0
	var tree *treeWorkload
	for _, wn := range workloadNames {
		w, err := newWorkload(wn, nproc)
		if err != nil {
			return report{}, err
		}
		win := shortWindow
		if wn == name {
			win = d
		}
		rec := newRecorder()
		if err := runTraced(wn, w, seed, win, tr, rec, m); err != nil {
			return report{}, err
		}
		a, f := rec.counts()
		attempted += a
		failed += f
		if tw, ok := w.(*treeWorkload); ok {
			tree = tw // kept for the bandwidth ratios below
		}
		fmt.Printf("perfbench: traced %s: %d jobs in %.2f s, cover %.4f\n",
			wn, a, rec.elapsed().Seconds(), m["trace."+wn+".cover_ratio"].Value)
	}
	releaseMemory()
	tri, err := triadProbe(nproc)
	if err != nil {
		return report{}, err
	}
	fmt.Printf("perfbench: triad: 3 arrays of %.0f MiB (LLC %.0f MiB): %.3f GB/s\n",
		mib(tri.arrayBytes), mib(tri.llcBytes), tri.gbs)
	m.set("host.triad_gbs", tri.gbs, "GB/s")
	m.set("host.llc_mb", mib(tri.llcBytes), "MiB")
	m.set("host.triad_array_mb", mib(tri.arrayBytes), "MiB")
	tree.bandwidth(m, tri.gbs)
	if err := tr.dump(filepath.Join(outdir, fmt.Sprintf("trace-%s-%d.jsonl", name, seed))); err != nil {
		return report{}, err
	}
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// runTraced sets one workload up, runs its traced window and collects
// its per-layer metrics, then tears it down.
func runTraced(name string, w workload, seed int64, win time.Duration, tr *tracer, rec *recorder, m metrics) error {
	defer releaseMemory()
	defer w.teardown()
	if err := w.setup(seed, tr); err != nil {
		return fmt.Errorf("%s setup: %w", name, err)
	}
	if err := w.references(tr); err != nil {
		return fmt.Errorf("%s references: %w", name, err)
	}
	w.window(win, tr, rec)
	m.set("trace."+name+".cover_ratio", tr.cover(name+".job"), "ratio")
	m.set("trace."+name+".overhead_ratio", rec.overheadRatio(), "ratio")
	m.set("graph."+name+".gen_ms", ms(tr.total("graph.gen", name)), "ms")
	w.layers(m, rec, tr)
	return nil
}

// releaseMemory returns freed heap to the OS between phases so one
// workload's tables do not count against the next.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// errMismatch marks an estimate that is not bit-identical to its
// reference.
var errMismatch = errors.New("estimate differs from the reference")
