package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Spans of one job share Job; Parent is the
// index of the enclosing span, -1 for a job's root.
type span struct {
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Job    int64  `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until dump. A nil *tracer records
// nothing, so untraced code paths call the same methods.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	jobs  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newJob returns a fresh job identifier (0 when tracing is off).
func (t *tracer) newJob() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs++
	return t.jobs
}

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(job int64, parent int, name, attr string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Attr: attr, Job: job, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations lists the durations of the spans named name (and, when attr
// is not empty, carrying attr), in ms.
func (t *tracer) durations(name, attr string) []float64 {
	var out []float64
	for _, s := range t.closed() {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// total sums durations(name, attr).
func (t *tracer) total(name, attr string) time.Duration {
	var sum float64
	for _, d := range t.durations(name, attr) {
		sum += d
	}
	return time.Duration(sum * float64(time.Millisecond))
}

// cover is the share of the root spans named root that their direct
// child spans cover, summed over all such roots.
func (t *tracer) cover(root string) float64 {
	spans := t.closed()
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var covered, total int64
	for _, s := range spans {
		if s.Name != root || s.Parent != -1 {
			continue
		}
		total += s.End - s.Start
		covered += union(kids[s.ID], s.Start, s.End)
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// union is the length of the union of ivs clipped to [lo, hi].
func union(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// dump writes the spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}

// job is one unit of closed-loop work. run performs it for the given
// round (jobs cycle their seeds by round), records its spans under
// parent, checks the answer, and returns the iterations computed.
type job struct {
	name string
	run  func(tr *tracer, id int64, parent, round int) (iters int, err error)
}

// closedLoop runs jobs round-robin with one caller, in whole rounds,
// until d has passed and at least minRounds rounds are done, so every
// window holds the same mix of jobs. Each job starts on a freshly
// collected heap, so one job's garbage does not move the next one's
// timing or peak memory. With tr set it traces every other round, so
// the window also measures the tracing overhead.
func closedLoop(wl string, d time.Duration, jobs []job, tr *tracer, rec *recorder, minRounds int) {
	if tr != nil && minRounds < 2 {
		minRounds = 2
	}
	rec.begin(true)
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < d; round++ {
		var t *tracer
		if round%2 == 0 {
			t = tr
		}
		for _, j := range jobs {
			runtime.GC()
			id := t.newJob()
			root := t.begin(id, -1, wl+".job", j.name)
			t0 := time.Now()
			iters, err := j.run(t, id, root, round)
			lat := time.Since(t0)
			t.end(root)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s job %s round %d: %v\n", wl, j.name, round, err)
			}
			rec.add(sample{kind: j.name, lat: lat, iters: iters, ok: err == nil, traced: t != nil})
		}
	}
}
