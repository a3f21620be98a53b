package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// triadResult is a STREAM-style triad measurement.
type triadResult struct {
	gbs        float64 // best pass, counting 3 arrays of traffic
	arrayBytes int64   // size of each of the 3 arrays
	llcBytes   int64   // largest cache the OS reports
}

// triadPasses is how many triad passes run; the best one is reported.
const triadPasses = 5

// triadProbe runs a[i] = b[i] + s·c[i] on nproc goroutines over three
// arrays that together hold 4× the last-level cache. If they would not
// fit in half the available memory it reports 0 GB/s, and the
// bandwidth ratios then read 0.
func triadProbe(nproc int) (triadResult, error) {
	llc := llcBytes()
	if llc == 0 {
		return triadResult{}, fmt.Errorf("triad: no cache size in /sys/devices/system/cpu/cpu0/cache")
	}
	res := triadResult{llcBytes: llc, arrayBytes: (4*llc/3 + 7) &^ 7}
	if avail := procStatusBytes("/proc/meminfo", "MemAvailable:"); 2*3*res.arrayBytes > avail {
		fmt.Printf("perfbench: triad: 3 × %.0f MiB do not fit in half of %.0f MiB available; no bandwidth ratios\n",
			mib(res.arrayBytes), mib(avail))
		return res, nil
	}
	n := int(res.arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	parallel(nproc, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	best := time.Duration(1<<63 - 1)
	for p := 0; p < triadPasses; p++ {
		t0 := time.Now()
		parallel(nproc, n, func(lo, hi int) {
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + 3*cc[i]
			}
		})
		best = min(best, time.Since(t0))
	}
	res.gbs = float64(3*res.arrayBytes) / best.Seconds() / 1e9
	return res, nil
}

// parallel splits [0, n) into nproc contiguous chunks and waits for f
// on all of them.
func parallel(nproc, n int, f func(lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		lo, hi := n*w/nproc, n*(w+1)/nproc
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(lo, hi)
		}()
	}
	wg.Wait()
}

// llcBytes is the largest cache size cpu0 reports (0 if unknown).
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}
