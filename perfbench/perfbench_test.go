package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/serve"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricNames checks that the metrics the code reports are exactly
// those BENCHMARK.json declares, with allowed names and units, that the
// metrics the benchmark is specified to report are all there, and that
// every workload BENCHMARK.json lists is one the benchmark runs.
func TestMetricNames(t *testing.T) {
	bf := readBenchFile(t)
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	want, err := perLayerNames()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(layer)
	if !reflect.DeepEqual(layer, want) {
		t.Errorf("per_layer names differ from the code:\n json %v\n code %v", layer, want)
	}
	wantE2E := append([]string(nil), endToEndNames...)
	sort.Strings(wantE2E)
	sort.Strings(e2e)
	if !reflect.DeepEqual(e2e, wantE2E) {
		t.Errorf("end_to_end names %v, code reports %v", e2e, wantE2E)
	}
	for _, w := range bf.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	seen := map[string]bool{}
	for _, n := range append(e2e, layer...) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated metric name %q", n)
		}
		seen[n] = true
	}
	specified := []string{
		"setup_s", "jobs_per_s", "iter_per_s", "job_ms_p50", "job_ms_p90", "slo_ok_ratio", "peak_rss_mb",
		"dp.engine_build_ms", "serve.registry_add_ms", "host.triad_gbs",
		"bag.paw.ms_per_iter", "bag.c4.peak_mb", "bag.tailed6.ms_per_iter", "cactus.tailed6.ms_per_iter",
		"serve.server_ms_p50.hit", "serve.server_ms_p50.partial", "serve.server_ms_p50.miss",
		"serve.server_ms_p50.bypass", "serve.http_overhead_ms_p50", "serve.cache_hit_ratio",
		"serve.cached_iter_ratio", "serve.rejected_ratio", "serve.queue_depth_max",
		"serve.fresh_iter_per_s", "loadgen.late_ms_p99",
		"dp.local_ms_per_iter", "dist.inproc_ms_per_iter", "shard.pool_ms_per_iter",
		"shard.comm_mb_per_iter", "shard.wire_mb_per_iter", "shard.messages_per_iter",
		"shard.frames_per_group", "shard.redispatches",
		"dp.sweep.inner1_ms_per_iter", "dp.sweep.inner2_ms_per_iter", "dp.sweep.outer2_ms_per_iter",
		"dp.sweep.hybrid2_ms_per_iter", "dp.sweep.batch8_ms_per_iter", "dp.sweep.batch8_notile_ms_per_iter",
		"table.sweep.naive_ms_per_iter", "table.sweep.hash_ms_per_iter", "table.sweep.succinct_ms_per_iter",
	}
	for _, j := range treeJobNames {
		for _, s := range []string{"iter_ms_p50", "node_cover_ratio", "aggregate_share"} {
			specified = append(specified, "dp."+j+"."+s)
		}
		for _, s := range []string{"peak_mb", "arena_hit_ratio", "gathered_mb_per_iter", "bw_fraction"} {
			specified = append(specified, "table."+j+"."+s)
		}
	}
	for _, w := range workloadNames {
		specified = append(specified, "trace."+w+".cover_ratio", "trace."+w+".overhead_ratio")
	}
	for _, n := range specified {
		if !seen[n] {
			t.Errorf("specified metric %s is not reported", n)
		}
	}
}

// TestSeedDeterminism checks that a seed fixes the inputs and the
// estimates, and that another seed changes the inputs.
func TestSeedDeterminism(t *testing.T) {
	digest := func(seed int64) ([]uint64, float64) {
		w := &treeWorkload{nproc: 2}
		if err := w.setup(seed, nil); err != nil {
			t.Fatal(err)
		}
		var hs []uint64
		for _, j := range w.jobs {
			hs = append(hs, serve.HashGraph(j.g), uint64(j.seed))
		}
		w.jobs = w.jobs[2:] // the labelled job is the cheap one
		if err := w.references(nil); err != nil {
			t.Fatal(err)
		}
		return hs, prefixMean(w.jobs[0].ref)
	}
	a, ea := digest(5)
	b, eb := digest(5)
	c, _ := digest(6)
	if !reflect.DeepEqual(a, b) || math.Float64bits(ea) != math.Float64bits(eb) {
		t.Errorf("seed 5 twice: inputs %v vs %v, estimates %v vs %v", a, b, ea, eb)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 5 and 6 give the same inputs %v", a)
	}
	sched := func(seed int64) []serveReq {
		w := &serveWorkload{seed: seed, keys: make([]serveKey, len(serveTemplates)*serveSeeds)}
		return w.schedule(2 * time.Second)
	}
	if !reflect.DeepEqual(sched(5), sched(5)) || reflect.DeepEqual(sched(5), sched(6)) {
		t.Error("the serve schedule does not follow the seed")
	}
}

// TestCorruptedReferenceFails checks that an estimate that differs from
// its reference in the last digits counts as a failed job.
func TestCorruptedReferenceFails(t *testing.T) {
	w := &treeWorkload{nproc: 2}
	if err := w.setup(3, nil); err != nil {
		t.Fatal(err)
	}
	w.jobs = w.jobs[2:]
	if err := w.references(nil); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	w.window(0, nil, rec)
	if a, f := rec.counts(); a == 0 || f != 0 {
		t.Fatalf("%d of %d jobs failed with the true reference", f, a)
	}
	ref := w.jobs[0].ref
	ref[0] *= 1 + 1e-12
	rec = newRecorder()
	w.window(0, nil, rec)
	if a, f := rec.counts(); f == 0 {
		t.Fatalf("none of %d jobs failed with a corrupted reference", a)
	}
}

// TestTraceCover checks that on every workload the benchmark's child
// spans cover at least 95% of each job span.
func TestTraceCover(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		if err := w.setup(1, tr); err != nil {
			t.Fatal(err)
		}
		if err := w.references(tr); err != nil {
			w.teardown()
			t.Fatal(err)
		}
		rec := newRecorder()
		w.window(time.Second, tr, rec)
		w.teardown()
		if c := tr.cover(name + ".job"); c < 0.95 {
			t.Errorf("%s: trace cover %v < 0.95", name, c)
		}
		if a, f := rec.counts(); a == 0 || f != 0 {
			t.Errorf("%s: %d jobs, %d failed", name, a, f)
		}
	}
}

// treeLayerNames lists the tree workload's per-layer metric names.
func treeLayerNames() ([]string, error) {
	ts, err := treeTemplates()
	if err != nil {
		return nil, err
	}
	names := []string{"graph.tree.csr_mb", "dp.engine_build_ms"}
	for i, t := range ts {
		tree, err := partitionTree(t)
		if err != nil {
			return nil, err
		}
		p := "dp." + treeJobNames[i] + "."
		names = append(names, p+"iter_ms_p50")
		for _, n := range internalNodes(tree) {
			names = append(names, fmt.Sprintf("%snode%d_ms_per_iter", p, n))
		}
		names = append(names, p+"node_cover_ratio", p+"aggregate_share")
		p = "table." + treeJobNames[i] + "."
		names = append(names, p+"peak_mb", p+"arena_hit_ratio", p+"gathered_mb_per_iter", p+"bw_fraction")
	}
	for _, c := range (&treeWorkload{}).sweepConfigs() {
		names = append(names, c.name+"_ms_per_iter")
	}
	return names, nil
}

// nontreeLayerNames lists the nontree workload's per-layer metric names.
func nontreeLayerNames() []string {
	names := []string{"graph.nontree.csr_mb", "cactus.tailed6.ms_per_iter"}
	for _, s := range nontreeSpecs {
		names = append(names, "bag."+s.name+".ms_per_iter", "bag."+s.name+".peak_mb")
	}
	return names
}

// serveLayerNames lists the serve workload's per-layer metric names.
func serveLayerNames() []string {
	return []string{
		"graph.serve.csr_mb", "serve.registry_add_ms",
		"serve.server_ms_p50.hit", "serve.server_ms_p50.partial",
		"serve.server_ms_p50.miss", "serve.server_ms_p50.bypass",
		"serve.http_overhead_ms_p50", "serve.cache_hit_ratio", "serve.cached_iter_ratio",
		"serve.rejected_ratio", "serve.queue_depth_max", "serve.fresh_iter_per_s",
		"loadgen.late_ms_p99",
	}
}

// shardedLayerNames lists the sharded workload's per-layer metric names.
func shardedLayerNames() []string {
	return []string{
		"graph.sharded.csr_mb", "shard.worker_register_ms",
		"dp.local_ms_per_iter", "dist.inproc_ms_per_iter", "shard.pool_ms_per_iter",
		"shard.comm_mb_per_iter", "shard.wire_mb_per_iter", "shard.messages_per_iter",
		"shard.frames_per_group", "shard.redispatches",
	}
}

// endToEndNames lists the end-to-end metrics every untraced run reports.
var endToEndNames = []string{
	"setup_s", "jobs_per_s", "iter_per_s", "job_ms_p50", "job_ms_p90",
	"slo_ok_ratio", "ok_ratio", "peak_rss_mb",
}

// perLayerNames lists every metric a traced run reports, sorted.
func perLayerNames() ([]string, error) {
	names, err := treeLayerNames()
	if err != nil {
		return nil, err
	}
	names = append(names, nontreeLayerNames()...)
	names = append(names, serveLayerNames()...)
	names = append(names, shardedLayerNames()...)
	names = append(names, "host.triad_gbs", "host.llc_mb", "host.triad_array_mb")
	for _, w := range workloadNames {
		names = append(names, "trace."+w+".cover_ratio", "trace."+w+".overhead_ratio", "graph."+w+".gen_ms")
	}
	sort.Strings(names)
	return names, nil
}
