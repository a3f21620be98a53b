package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// set records a metric, mapping a non-finite value (an empty sample set)
// to 0 so the result always encodes.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// report is the benchmark's result line.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// sample is one timed job.
type sample struct {
	kind  string        // job name, e.g. "ba100k-U7-1"
	lat   time.Duration // latency (serve: from the scheduled send time)
	iters int           // iterations the job computed or returned
	ok    bool          // answered, complete and bit-identical
	// traced marks jobs that ran with spans on; a traced window
	// alternates traced and untraced jobs to measure the overhead.
	traced bool
}

// recorder collects the samples of one timed window.
type recorder struct {
	mu         sync.Mutex
	start, end time.Time
	samples    []sample
	closed     bool // filled by closedLoop
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.end = time.Now()
	r.mu.Unlock()
}

// begin restarts the window clock (after any untimed preparation);
// closed marks a closed-loop window.
func (r *recorder) begin(closed bool) {
	r.mu.Lock()
	r.start = time.Now()
	r.closed = closed
	r.mu.Unlock()
}

// elapsed is the window from its start to the last completed job.
func (r *recorder) elapsed() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.end.Before(r.start) {
		return 0
	}
	return r.end.Sub(r.start)
}

// counts returns the attempted and failed job counts.
func (r *recorder) counts() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.samples {
		if !s.ok {
			failed++
		}
	}
	return len(r.samples), failed
}

// overheadRatio compares traced with untraced jobs of the same kind:
// median(traced)/median(untraced) per kind, averaged with the kinds'
// sample counts as weights.
func (r *recorder) overheadRatio() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	on, off := map[string][]float64{}, map[string][]float64{}
	for _, s := range r.samples {
		if s.traced {
			on[s.kind] = append(on[s.kind], ms(s.lat))
		} else {
			off[s.kind] = append(off[s.kind], ms(s.lat))
		}
	}
	var sum, weight float64
	for kind, t := range on {
		u, ok := off[kind]
		if !ok {
			continue
		}
		n := float64(len(t) + len(u))
		sum += n * median(t) / median(u)
		weight += n
	}
	return sum / weight
}

// endToEnd computes the end-to-end metrics of an untraced window. For a
// closed loop (one caller, round-robin over job kinds) throughput is
// taken from the per-kind median latencies — kinds per round over the
// median round time — so one stalled job does not move it; an open loop
// reports what completed over the window.
func endToEnd(r *recorder, setupS float64, limit time.Duration) metrics {
	r.mu.Lock()
	var lats []float64
	okJobs, okIters, inSLO := 0, 0, 0
	kindLat, kindIters := map[string][]float64{}, map[string][]float64{}
	var kinds []string
	for _, s := range r.samples {
		lats = append(lats, ms(s.lat))
		if _, seen := kindLat[s.kind]; !seen {
			kinds = append(kinds, s.kind)
		}
		kindLat[s.kind] = append(kindLat[s.kind], s.lat.Seconds())
		if s.ok {
			okJobs++
			okIters += s.iters
			kindIters[s.kind] = append(kindIters[s.kind], float64(s.iters))
			if s.lat <= limit {
				inSLO++
			}
		}
	}
	n, closed := len(r.samples), r.closed
	r.mu.Unlock()
	jobsPerS := float64(okJobs) / r.elapsed().Seconds()
	itersPerS := float64(okIters) / r.elapsed().Seconds()
	if closed {
		var round, iters float64
		for _, k := range kinds {
			round += median(kindLat[k])
			if len(kindIters[k]) > 0 {
				iters += median(kindIters[k])
			}
		}
		jobsPerS = float64(len(kinds)) / round * float64(okJobs) / float64(n)
		itersPerS = iters / round
	}
	m := metrics{}
	m.set("setup_s", setupS, "s")
	m.set("jobs_per_s", jobsPerS, "1/s")
	m.set("iter_per_s", itersPerS, "1/s")
	m.set("job_ms_p50", quantile(lats, 0.5), "ms")
	m.set("job_ms_p90", quantile(lats, 0.9), "ms")
	m.set("slo_ok_ratio", float64(inSLO)/float64(n), "ratio")
	m.set("ok_ratio", float64(okJobs)/float64(n), "ratio")
	m.set("peak_rss_mb", mib(peakRSSBytes()), "MiB")
	return m
}

// quantile is the linearly interpolated q-quantile of xs (NaN if empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// peakRSSBytes reads the process's peak resident set (VmHWM).
func peakRSSBytes() int64 {
	return procStatusBytes("/proc/self/status", "VmHWM:")
}

// resetPeakRSS restarts VmHWM from the current resident set, so the
// peak covers the timed window only (Linux; a no-op elsewhere).
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procStatusBytes reads one "<key> <n> kB" line of a /proc status file
// (0 if absent).
func procStatusBytes(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key) {
			continue
		}
		fields := strings.Fields(line[len(key):])
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
