package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/deltastep"
	"repro/internal/dijkstra"
	"repro/internal/dimacs"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/par"
	"repro/internal/snapshot"
	"repro/internal/solver"
)

// Daemon defaults mirrored by the in-process layer calls: ssspd's -workers,
// -cache-entries and -cache-bytes, and the catalog's build workers.
const (
	daemonWorkers  = 4
	daemonCacheN   = 256
	daemonCacheB   = 64 << 20
	catalogBuilder = 2
)

// span is one timed interval. Spans of one request or one layer
// measurement share a trace; parent links a span to the one that caused it.
type span struct {
	Trace  string         `json:"trace"`
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.t0.IsZero() {
		l.t0 = time.Now()
	}
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// timed runs fn as a span named name under parent and returns its duration.
func (l *spanLog) timed(trace, name string, parent int, fn func()) time.Duration {
	if l.t0.IsZero() {
		l.add(span{Trace: "run", Name: "start"})
	}
	start := time.Now()
	fn()
	end := time.Now()
	l.add(span{Trace: trace, Parent: parent, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	return end.Sub(start)
}

// reps times fn reps times, each call a span, and returns the durations.
func (l *spanLog) reps(trace, name string, reps int, fn func(i int)) []time.Duration {
	root := l.add(span{Trace: trace, Name: name + ".reps", Attrs: map[string]any{"reps": reps}})
	out := make([]time.Duration, reps)
	for i := range out {
		out[i] = l.timed(trace, name, root, func() { fn(i) })
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string, notApplicable []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"not_applicable": notApplicable}); err != nil {
		f.Close()
		return err
	}
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hotSource is the most requested source on graph 0 of the main phase.
func (st *runState) hotSource() int32 {
	count := map[int32]int{}
	best, bestN := int32(0), -1
	for _, r := range st.reqs {
		if r.kind == kBatch || r.graph != 0 {
			continue
		}
		count[r.src]++
		if count[r.src] > bestN {
			best, bestN = r.src, count[r.src]
		}
	}
	return best
}

// serveLayers measures the layers that need the live daemon: the HTTP hit
// path, the full-vector write and, on hot-zipf, the router hop (ssspr is
// started in front of the daemon for the measurement). Requests are sent
// one at a time on one connection, with the main phase over.
func (st *runState) serveLayers(ctx context.Context) (map[string]metric, error) {
	m := map[string]metric{}
	src := st.hotSource()
	direct := &client{hc: newHTTPClient(1), base: st.d.url(), names: st.names}
	defer direct.hc.CloseIdleConnections()
	n := st.gs[0].g.NumVertices()
	serial := func(c *client, trace string, reps int, r request) ([]time.Duration, error) {
		out := make([]time.Duration, 0, reps)
		for i := 0; i < reps+1; i++ {
			r.dst = int32((i * 7919) % n)
			var res result
			d := st.spans.timed(trace, "http."+kindName(r.kind), 0, func() { c.do(ctx, &r, "", &res) })
			if res.failed {
				return nil, fmt.Errorf("%s probe: %s", trace, res.errMsg)
			}
			if i == 0 {
				continue // the first call fills the cache and the JSON form
			}
			if res.cache == 0 {
				return nil, fmt.Errorf("%s probe: answer not from the cache", trace)
			}
			out = append(out, d)
		}
		return out, nil
	}
	hits, err := serial(direct, "ssspd.hit_request", 300, request{kind: kDist, src: src})
	if err != nil {
		return nil, err
	}
	m["ssspd.hit_request_us"] = metric{medianDur(hits, us), "us"}
	full, err := serial(direct, "ssspd.full_hit", 30, request{kind: kFull, src: src})
	if err != nil {
		return nil, err
	}
	m["ssspd.full_hit_ms"] = metric{medianDur(full, ms), "ms"}
	if st.cfg.workload != "hot-zipf" {
		return m, nil
	}
	rd, err := startRouter(ctx, st.cfg, st.dir, st.d, st.gs)
	if err != nil {
		return nil, err
	}
	defer rd.stop(5 * time.Second)
	routed := &client{hc: newHTTPClient(1), base: rd.url(), names: st.names}
	defer routed.hc.CloseIdleConnections()
	var d, r []float64
	for i := 0; i < 4; i++ {
		a, err := serial(direct, "router.direct", 100, request{kind: kDist, src: src})
		if err != nil {
			return nil, err
		}
		b, err := serial(routed, "router.routed", 100, request{kind: kDist, src: src})
		if err != nil {
			return nil, err
		}
		for j := range a {
			d, r = append(d, ms(a[j])), append(r, ms(b[j]))
		}
	}
	m["router.hop_p50_ms"] = metric{median(r) - median(d), "ms"}
	m["router.hop_p99_ms"] = metric{quantile(r, 0.99) - quantile(d, 0.99), "ms"}
	return m, nil
}

// processLayers times the benchmark's own calls into each layer's package
// on this run's generated inputs (daemons stopped), derives the traffic
// ratios from the main phase's answers, reconciles the end-to-end median
// with the layers on its blocking path, and writes the spans file.
func (st *runState) processLayers(m map[string]metric) error {
	l := st.spans
	g0 := st.gs[0]
	srcs := []int32{st.hotSource()}
	if st.cfg.workload == "batch-multi" {
		srcs = st.reqs[0].items[0]
	}
	notApplicable := []string{}
	na := func(name, unit string) {
		m[name] = metric{0, unit}
		notApplicable = append(notApplicable, name)
	}
	if st.cfg.workload != "hot-zipf" {
		na("router.hop_p50_ms", "ms")
		na("router.hop_p99_ms", "ms")
	}

	// Solve path: pooled exec-mode Thorup (4 and 1 workers), serial Thorup.
	rt := par.NewExec(daemonWorkers)
	q := core.NewSolver(g0.h, rt).Query()
	q.RunFromSources(srcs)
	q.Reset()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	exec := l.reps("core", "core.thorup_exec", 5, func(int) { q.RunFromSources(srcs); q.Reset() })
	runtime.ReadMemStats(&ms1)
	m["core.thorup_exec_ms"] = metric{medianDur(exec, ms), "ms"}
	m["core.thorup_allocs_per_query"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / 5, "count"}
	q1 := core.NewSolver(g0.h, par.NewExec(1)).Query()
	w1 := l.reps("core", "core.thorup_exec_w1", 3, func(int) { q1.RunFromSources(srcs); q1.Reset() })
	m["core.thorup_exec_w1_ms"] = metric{medianDur(w1, ms), "ms"}
	ser := l.reps("core", "core.thorup_serial", 3, func(int) { core.SerialSSSPFromSources(g0.h, srcs) })
	m["core.thorup_serial_ms"] = metric{medianDur(ser, ms), "ms"}
	buf := make([]int64, 64)
	small := l.reps("par", "par.for_small", 2000, func(int) {
		rt.For(len(buf), func(i int) { buf[i]++ })
	})
	m["par.for_small_us"] = metric{medianDur(small, us), "us"}

	// Delta-stepping and Dijkstra, pooled as the engine runs them.
	delta := deltastep.DefaultDelta(g0.g)
	ds := deltastep.NewState()
	dsT := l.reps("deltastep", "deltastep.solve", 5, func(int) { ds.Run(rt, g0.g, srcs[0], delta); ds.Reset() })
	m["deltastep.solve_ms"] = metric{medianDur(dsT, ms), "ms"}
	sc := dijkstra.NewScratch()
	djT := l.reps("dijkstra", "dijkstra.solve", 5, func(int) { sc.SSSP(g0.g, srcs[0]); sc.Reset() })
	m["dijkstra.solve_ms"] = metric{medianDur(djT, ms), "ms"}

	// Engine: hit path, and a miss's overhead over the solver it runs.
	eng := engine.New(solver.NewInstanceWithHierarchy(g0.g, rt, g0.h),
		engine.Config{CacheEntries: daemonCacheN, CacheBytes: daemonCacheB, BatchWorkers: daemonWorkers})
	bg := context.Background()
	missSrcs := make([]int32, 25)
	for i := range missSrcs {
		missSrcs[i] = int32((i*2654435761 + 17) % g0.g.NumVertices())
	}
	// Each miss is paired with the same solve called directly, so the
	// difference cancels the source's own cost; the pair's order
	// alternates so neither side always runs on warmer caches.
	over := make([]float64, len(missSrcs))
	for i, s := range missSrcs {
		name := st.solverFor(eng, s)
		var miss, direct time.Duration
		runMiss := func() {
			miss = l.timed("engine", "engine.miss", 0, func() { eng.Query(bg, engine.Request{Sources: []int32{s}}) })
		}
		runDirect := func() {
			direct = l.timed("engine", "engine.miss_direct."+name, 0, func() { solveDirect(name, g0, q, ds, rt, delta, s) })
		}
		if i%2 == 0 {
			runMiss()
			runDirect()
		} else {
			runDirect()
			runMiss()
		}
		over[i] = us(miss) - us(direct)
	}
	m["engine.miss_overhead_us"] = metric{median(over), "us"}
	hitReq := engine.Request{Sources: []int32{missSrcs[0]}}
	hit := l.reps("engine", "engine.hit", 2000, func(int) { eng.Query(bg, hitReq) })
	m["engine.hit_us"] = metric{medianDur(hit, us), "us"}
	if st.cfg.workload == "batch-multi" {
		// Time batches of the median request's graph on one warmed engine,
		// as the daemon has: the first batch warms, the next two are timed.
		gi := st.reqs[st.medianRequest()].graph
		var same []request
		for _, r := range st.reqs {
			if r.graph == gi && len(same) < 3 {
				same = append(same, r)
			}
		}
		gm := st.gs[gi]
		batchOf := func(r request) []engine.Request {
			out := make([]engine.Request, len(r.items))
			for i, it := range r.items {
				out[i] = engine.Request{Sources: it}
			}
			return out
		}
		e := engine.New(solver.NewInstanceWithHierarchy(gm.g, rt, gm.h),
			engine.Config{CacheEntries: daemonCacheN, CacheBytes: daemonCacheB, BatchWorkers: daemonWorkers})
		e.Batch(bg, batchOf(same[0]))
		bt := l.reps("engine", "engine.batch", len(same)-1, func(i int) { e.Batch(bg, batchOf(same[1+i])) })
		m["engine.batch_ms"] = metric{medianDur(bt, ms), "ms"}
	} else {
		na("engine.batch_ms", "ms")
	}

	// Traffic ratios, counted from the main phase's via/solver fields.
	q0 := tally(st.results)
	if t := float64(q0.total()); t > 0 {
		m["engine.cache_hit_ratio"] = metric{float64(q0.cache) / t, "ratio"}
		m["engine.dedup_ratio"] = metric{float64(q0.dedup) / t, "ratio"}
		m["engine.solver_share.thorup"] = metric{float64(q0.thorup) / t, "ratio"}
		m["engine.solver_share.delta"] = metric{float64(q0.delta) / t, "ratio"}
	}

	if err := st.activationLayers(m, l); err != nil {
		return err
	}
	if err := st.writeLayers(m, l); err != nil {
		return err
	}

	// Catalog acquire on a ready graph.
	cat := catalog.New(catalog.Config{Workers: catalogBuilder, QueryWorkers: daemonWorkers, WarmQueries: -1,
		Logf: func(string, ...any) {}})
	if _, err := cat.AddPrebuilt(g0.name, catalog.Source{Loader: func() (*graph.Graph, *ch.Hierarchy, error) {
		return g0.g, g0.h, nil
	}}, g0.g, g0.h, nil); err != nil {
		cat.Close()
		return err
	}
	acq := l.reps("catalog", "catalog.acquire", 5000, func(int) {
		if _, release, err := cat.Acquire(g0.name); err == nil {
			release()
		}
	})
	cat.Close()
	m["catalog.acquire_us"] = metric{medianDur(acq, us), "us"}

	// Open-loop lateness, tracing overhead, and the unexplained residual.
	lags := []float64{}
	var traced, plain []float64
	for i, r := range st.results {
		if r.failed {
			continue
		}
		lags = append(lags, ms(r.lag))
		if r.traced {
			traced = append(traced, ms(r.lat))
		} else {
			plain = append(plain, ms(r.lat))
		}
		if r.traced {
			end := r.start + r.lat - r.lag
			l.add(span{Trace: fmt.Sprintf("pb-%d", i), Name: "request." + kindName(st.reqs[i].kind),
				Start: r.start.Nanoseconds(), End: end.Nanoseconds(),
				Attrs: map[string]any{"lag_ns": r.lag.Nanoseconds(), "phase": "main"}})
		}
	}
	if st.cfg.workload == "hot-zipf" {
		m["loadgen.lag_p99_ms"] = metric{quantile(lags, 0.99), "ms"}
	} else {
		na("loadgen.lag_p99_ms", "ms")
	}
	if len(plain) > 0 && len(traced) > 0 {
		m["trace_overhead_pct"] = metric{100 * (median(traced) - median(plain)) / median(plain), "%"}
	}
	p50 := median(latencies(st.results))
	m["unexplained_p50_ms"] = metric{p50 - st.blockingPath(m, q0), "ms"}

	for _, name := range perLayerNames {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("traced run did not produce %s", name)
		}
	}
	sort.Strings(notApplicable)
	path := filepath.Join(st.cfg.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", st.cfg.workload, st.cfg.seed))
	if err := l.write(path, notApplicable); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s; not applicable here: %s\n",
		len(l.spans), path, strings.Join(notApplicable, ", "))
	return nil
}

// blockingPath sums the layer self times on the path of a median request:
// a batch is the catalog acquire plus the engine's batch execution; a point
// query is the HTTP hit path (whose self time nests catalog acquire and the
// engine hit), plus — when most answers were solved, not cached — the
// engine miss over a hit. The router is not on any workload's path.
func (st *runState) blockingPath(m map[string]metric, q provenance) float64 {
	acquire := m["catalog.acquire_us"].Value / 1000
	if st.cfg.workload == "batch-multi" {
		return acquire + m["engine.batch_ms"].Value
	}
	sum := m["ssspd.hit_request_us"].Value / 1000
	if q.solve*2 > q.total() {
		sum += m["deltastep.solve_ms"].Value + m["engine.miss_overhead_us"].Value/1000 - m["engine.hit_us"].Value/1000
	}
	return sum
}

// medianRequest is the index of the answered main-phase request with the
// median latency.
func (st *runState) medianRequest() int {
	var idx []int
	for i, r := range st.results {
		if !r.failed {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return 0
	}
	sort.Slice(idx, func(a, b int) bool { return st.results[idx[a]].lat < st.results[idx[b]].lat })
	return idx[(len(idx)-1)/2]
}

// solverFor is the solver the engine's policy picks for source s.
func (st *runState) solverFor(eng *engine.Engine, s int32) string {
	name, _, _, _ := eng.PredictCost(engine.Request{Sources: []int32{s}})
	return name
}

func kindName(k kind) string {
	return [...]string{"dist", "sssp", "sssp_full", "batch"}[k]
}

// solveDirect runs the named solver the way the engine's pooled path does,
// without the engine.
func solveDirect(name string, g *graphIn, q *core.Query, ds *deltastep.State, rt *par.Runtime, delta int64, src int32) {
	switch name {
	case "delta":
		ds.Run(rt, g.g, src, delta)
		ds.Reset()
	case "thorup":
		q.Run(src)
		q.Reset()
	default:
		dijkstra.SSSP(g.g, src)
	}
}

// activationLayers times graph activation: snapshot maps (cold = first map
// of a new file, which verifies it; warm = re-map of a verified file), the
// DIMACS text read, the hierarchy cache load and a from-scratch build, and
// a catalog load from the workload's second graph source to ready.
func (st *runState) activationLayers(m map[string]metric, l *spanLog) error {
	g0 := st.gs[0]
	src := filepath.Join(st.dir, g0.file)
	cold := make([]time.Duration, 0, 3)
	for i := 0; i < 3; i++ {
		cp := filepath.Join(st.dir, fmt.Sprintf("%s.copy%d", g0.file, i))
		if err := copyFile(src, cp); err != nil {
			return err
		}
		var mp *snapshot.Mapping
		var err error
		cold = append(cold, l.timed("snapshot", "snapshot.map_cold", 0, func() { _, _, mp, err = snapshot.Map(cp) }))
		if err != nil {
			return fmt.Errorf("map %s: %w", cp, err)
		}
		mp.Close()
	}
	m["snapshot.map_cold_ms"] = metric{medianDur(cold, ms), "ms"}
	var mapErr error
	warm := l.reps("snapshot", "snapshot.map_warm", 200, func(int) {
		_, _, mp, err := snapshot.Map(src)
		if err != nil {
			mapErr = err
			return
		}
		mp.Close()
	})
	if mapErr != nil {
		return mapErr
	}
	m["snapshot.map_warm_us"] = metric{medianDur(warm, us), "us"}

	// The DIMACS-served graph, or rand16 written as text where the workload
	// serves none (then these layers are off its set-up path).
	dg := g0
	for _, g := range st.gs {
		if g.dimacs {
			dg = g
		}
	}
	grPath, chbPath := filepath.Join(st.dir, dg.file), filepath.Join(st.dir, dg.chb)
	if !dg.dimacs {
		grPath, chbPath = filepath.Join(st.dir, "layers.gr"), filepath.Join(st.dir, "layers.chb")
		f, err := os.Create(grPath)
		if err != nil {
			return err
		}
		if err := dimacs.WriteGraph(f, dg.g, ""); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		// The text round trip reorders the CSR, so the cache is built for
		// the parsed graph, as a daemon would build it.
		parsed, err := readDIMACS(grPath)
		if err != nil {
			return err
		}
		if err := catalog.WriteCHCache(ch.BuildKruskal(parsed), chbPath); err != nil {
			return err
		}
	}
	var readErr error
	var parsed *graph.Graph
	rd := l.reps("dimacs", "dimacs.read", 3, func(int) { parsed, readErr = readDIMACS(grPath) })
	if readErr != nil {
		return readErr
	}
	m["dimacs.read_ms"] = metric{medianDur(rd, ms), "ms"}
	cl := l.reps("ch", "ch.cache_load", 3, func(int) {
		f, err := os.Open(chbPath)
		if err != nil {
			readErr = err
			return
		}
		defer f.Close()
		if _, err := ch.ReadFrom(f, parsed); err != nil {
			readErr = err
		}
	})
	if readErr != nil {
		return fmt.Errorf("ch cache load: %w", readErr)
	}
	m["ch.cache_load_ms"] = metric{medianDur(cl, ms), "ms"}
	bd := l.reps("ch", "ch.build", 3, func(int) { ch.BuildKruskal(parsed) })
	m["ch.build_ms"] = metric{medianDur(bd, ms), "ms"}

	// Catalog load to ready, from the source the workload's second graph
	// is served from (its only graph on mutate-mixed).
	lg := st.gs[len(st.gs)-1]
	src2 := catalog.Source{Snapshot: filepath.Join(st.dir, lg.file)}
	if lg.dimacs {
		src2 = catalog.Source{Spec: cli.Spec{File: filepath.Join(st.dir, lg.file)}, CHCache: filepath.Join(st.dir, lg.chb)}
	}
	var loadErr error
	ld := l.reps("catalog", "catalog.load_ready", 3, func(int) {
		cat := catalog.New(catalog.Config{Workers: catalogBuilder, QueryWorkers: daemonWorkers, MMap: true,
			Engine: engine.Config{CacheEntries: daemonCacheN, CacheBytes: daemonCacheB},
			Logf:   func(string, ...any) {}})
		defer cat.Close()
		if err := cat.Load(lg.name, src2); err != nil {
			loadErr = err
			return
		}
		if err := cat.WaitReady(lg.name, time.Minute); err != nil {
			loadErr = err
		}
	})
	if loadErr != nil {
		return fmt.Errorf("catalog load: %w", loadErr)
	}
	m["catalog.load_ready_ms"] = metric{medianDur(ld, ms), "ms"}
	return nil
}

// writeLayers times the write path on rand16 with the mutation plan's
// batch shapes: the catalog's whole mutation, the CSR overlay alone, and
// each repair kind alone.
func (st *runState) writeLayers(m map[string]metric, l *spanLog) error {
	g0 := st.gs[0]
	plan := mutationPlan(g0.g, st.cfg.seed+2, 12, mutateOps)
	cat := catalog.New(catalog.Config{Workers: catalogBuilder, QueryWorkers: daemonWorkers,
		Engine: engine.Config{CacheEntries: daemonCacheN, CacheBytes: daemonCacheB},
		Logf:   func(string, ...any) {}})
	defer cat.Close()
	if _, err := cat.AddPrebuilt(g0.name, catalog.Source{Loader: func() (*graph.Graph, *ch.Hierarchy, error) {
		return g0.g, g0.h, nil
	}}, g0.g, g0.h, nil); err != nil {
		return err
	}
	var catErr error
	cm := l.reps("catalog", "catalog.mutate", len(plan), func(i int) {
		if res, err := cat.Mutate(g0.name, plan[i]); err != nil || res.Fallback {
			catErr = fmt.Errorf("catalog mutate %d: fallback=%v err=%v", i, res.Fallback, err)
		}
	})
	if catErr != nil {
		return catErr
	}
	m["catalog.mutate_ms"] = metric{medianDur(cm, ms), "ms"}

	g, h := g0.g, g0.h
	var apply, additive, general []time.Duration
	for i, b := range plan {
		var g2 *graph.Graph
		var err error
		apply = append(apply, l.timed("mutate", "mutate.apply", 0, func() { g2, _, err = mutate.Apply(g, b) }))
		if err != nil {
			return fmt.Errorf("apply %d: %w", i, err)
		}
		set, ins, _ := b.Split()
		var h2 *ch.Hierarchy
		if i%3 == 2 {
			general = append(general, l.timed("ch", "ch.repair_general", 0, func() { h2, _, err = ch.Repair(h, g2, b.Touched()) }))
		} else {
			added := append(append([]graph.Edge(nil), ins...), set...)
			additive = append(additive, l.timed("ch", "ch.repair_additive", 0, func() { h2, _, err = ch.RepairAdditive(h, g2, added) }))
		}
		if err != nil {
			return fmt.Errorf("repair %d: %w", i, err)
		}
		g, h = g2, h2
	}
	m["mutate.apply_ms"] = metric{medianDur(apply, ms), "ms"}
	m["ch.repair_additive_ms"] = metric{medianDur(additive, ms), "ms"}
	m["ch.repair_general_ms"] = metric{medianDur(general, ms), "ms"}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// perLayerNames are the metrics of a traced run, in BENCHMARK.json order.
var perLayerNames = []string{
	"core.thorup_exec_ms", "core.thorup_exec_w1_ms", "core.thorup_serial_ms",
	"core.thorup_allocs_per_query", "par.for_small_us",
	"deltastep.solve_ms", "dijkstra.solve_ms",
	"engine.hit_us", "engine.miss_overhead_us", "engine.batch_ms",
	"engine.cache_hit_ratio", "engine.dedup_ratio",
	"engine.solver_share.thorup", "engine.solver_share.delta",
	"ssspd.hit_request_us", "ssspd.full_hit_ms",
	"snapshot.map_cold_ms", "snapshot.map_warm_us",
	"dimacs.read_ms", "ch.cache_load_ms", "ch.build_ms", "catalog.load_ready_ms",
	"catalog.mutate_ms", "mutate.apply_ms", "ch.repair_additive_ms", "ch.repair_general_ms",
	"catalog.acquire_us",
	"router.hop_p50_ms", "router.hop_p99_ms",
	"loadgen.lag_p99_ms", "unexplained_p50_ms", "trace_overhead_pct",
}
