package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/mutate"
)

// workloads maps each workload to the graphs its daemon serves; the first
// is the startup graph. Why each exists is recorded in BENCHMARK.json:
//   - batch-multi: the paper's many-simultaneous-queries path; the solver
//     does nearly all the work.
//   - hot-zipf: per-request overhead on the cache hit path; misses solve
//     with delta-stepping, so it is the bypass workload for solver changes.
//   - mutate-mixed: reads under a steady stream of acknowledged mutations.
var workloads = map[string][]string{
	"batch-multi":  {"rand16", "rmat16s"},
	"hot-zipf":     {"rand16", "grid16"},
	"mutate-mixed": {"rand16"},
}

// Fixed load parameters. hotRate is well under half of ssspd's capacity on
// hot-zipf's traffic: while a miss's delta-stepping solve holds both cores,
// hits wait for CPU, and at higher rates so many hits wait that the median
// lands among them and swings from run to run. The rate ladder's steps, its
// p99 limit and its step length define max_rate_qps.
const (
	hotRate      = 75.0
	writeEvery   = 125 * time.Millisecond
	mutateOps    = 4
	probeBatches = 150
	setupBoots   = 5
	ladderStep   = 1500 * time.Millisecond
	ladderLimit  = 250.0 // ms, p99
	minHitShare  = 0.8
)

// ladderRates is the fixed rate ladder: 60/s to about 10000/s in steps of
// 5%, so a one-step difference between runs stays well inside the bound
// on max_rate_qps, and the top lies far above any rate a 2-core host
// sustains on this traffic.
var ladderRates = func() []float64 {
	var out []float64
	for r := 60.0; r < 10000; r *= 1.05 {
		out = append(out, math.Round(r))
	}
	return out
}()

// bootDaemon starts ssspd on the workload's startup graph, loads the other
// graphs, and returns once it has answered a probe on every graph
// correctly. The returned duration is the set-up time: launch to the last
// first correct answer.
func bootDaemon(ctx context.Context, cfg config, dir string, gs []*graphIn) (*daemon, time.Duration, error) {
	ports, err := freePorts(1)
	if err != nil {
		return nil, 0, err
	}
	admin := newHTTPClient(4)
	defer admin.CloseIdleConnections()
	start := time.Now()
	d, err := startDaemon("ssspd", filepath.Join(cfg.bin, "ssspd"), dir, dir, ports[0], "-snapshot", gs[0].file)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop(5 * time.Second)
		return nil, 0, err
	}
	if err := waitHealthy(ctx, admin, d); err != nil {
		return fail(err)
	}
	names := make([]string, len(gs))
	for i, g := range gs {
		names[i] = g.name
		if i == 0 {
			continue
		}
		body := map[string]string{"name": g.name}
		if g.dimacs {
			body["file"], body["ch"] = g.file, g.chb
		} else {
			body["snapshot"] = g.file
		}
		if _, err := adminPost(admin, d.url()+"/graphs/load", body, nil); err != nil {
			return fail(err)
		}
	}
	if err := waitGraphsReady(ctx, admin, d, names); err != nil {
		return fail(err)
	}
	c := &client{hc: admin, base: d.url(), names: names}
	for i, g := range gs {
		if err := probeUntilCorrect(ctx, c, i, g); err != nil {
			return fail(err)
		}
	}
	return d, time.Since(start), nil
}

// startRouter puts ssspr, with a one-backend routing table, in front of d.
func startRouter(ctx context.Context, cfg config, dir string, d *daemon, gs []*graphIn) (*daemon, error) {
	ports, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	table := fmt.Sprintf(`{"v":1,"replicas":1,"backends":[{"name":"b0","url":%q}]}`, d.url())
	if err := os.WriteFile(filepath.Join(dir, "fleet.json"), []byte(table), 0o644); err != nil {
		return nil, err
	}
	r, err := startDaemon("ssspr", filepath.Join(cfg.bin, "ssspr"), dir, dir, ports[0],
		"-table", "fleet.json", "-default-graph", gs[0].name)
	if err != nil {
		return nil, err
	}
	admin := newHTTPClient(1)
	defer admin.CloseIdleConnections()
	if err := waitHealthy(ctx, admin, r); err != nil {
		r.stop(5 * time.Second)
		return nil, err
	}
	c := &client{hc: admin, base: r.url(), names: []string{gs[0].name}}
	if err := probeUntilCorrect(ctx, c, 0, gs[0]); err != nil {
		r.stop(5 * time.Second)
		return nil, err
	}
	return r, nil
}

// probeUntilCorrect retries the graph's probe query until it is answered
// (through the router, a graph is unanswerable until the router has seen it
// ready) and fails on a wrong answer.
func probeUntilCorrect(ctx context.Context, c *client, gi int, g *graphIn) error {
	r := request{kind: kDist, graph: gi, src: g.probeSrc, dst: g.probeDst}
	for {
		var res result
		c.do(ctx, &r, "", &res)
		if !res.failed {
			if res.dist != jsonDist(g.probeDist) {
				return fmt.Errorf("set-up probe on %s: dist(%d,%d) = %d, want %d",
					g.name, g.probeSrc, g.probeDst, res.dist, jsonDist(g.probeDist))
			}
			return nil
		}
		if !strings.HasPrefix(res.errMsg, "status 503") {
			return fmt.Errorf("set-up probe on %s: %s", g.name, res.errMsg)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("set-up probe on %s: %w", g.name, ctx.Err())
		case <-time.After(3 * time.Millisecond):
		}
	}
}

// runState is what one run collects for its report.
type runState struct {
	cfg   config
	dir   string
	gs    []*graphIn
	names []string
	d     *daemon
	lg    *client // the load generator's client, capped at cfg.conns
	setup []time.Duration

	reqs    []request
	results []result
	plan    []*mutate.Batch // mutate-mixed: the writer's batches
	writes  []writeResult
	rss     float64
	maxRate float64
	xRate   float64       // closed-loop rate x of the point mix, median of three daemons
	probe   []writeResult // mutation probe of the workloads without writes
	wall    time.Duration // main phase: first send to last answer
	spans   *spanLog
}

// runWorkload generates the inputs, boots the fleet, runs the workload and
// reports. Daemons are stopped before the answers are verified, so the
// oracle's Dijkstra runs never compete with the measurement.
func runWorkload(ctx context.Context, cfg config, dir string) (*outcome, error) {
	st := &runState{cfg: cfg, dir: dir}
	for i, name := range workloads[cfg.workload] {
		gi, err := makeGraph(dir, name, cfg.seed*1000+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		st.gs = append(st.gs, gi)
		st.names = append(st.names, name)
	}
	phase("generated %v", st.names)
	if cfg.trace {
		st.spans = &spanLog{}
	}
	boots := setupBoots
	if cfg.trace {
		boots = 1
	}
	for i := 0; i < boots; i++ {
		d, setup, err := bootDaemon(ctx, cfg, dir, st.gs)
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", i+1, err)
		}
		st.setup = append(st.setup, setup)
		if i < boots-1 {
			d.stop(5 * time.Second)
			continue
		}
		st.d = d
	}
	defer st.d.stop(5 * time.Second)
	phase("booted %d times", boots)
	st.lg = &client{hc: newHTTPClient(cfg.conns), base: st.d.url(), names: st.names}
	defer st.lg.hc.CloseIdleConnections()

	// Resident memory is sampled through the main phase and reported as
	// the median sample: the peak (VmHWM) follows where garbage collection
	// happened to fall and swung by a third between runs on mutate-mixed.
	rssSamples := sampleRSS(st.d.cmd.Process.Pid, 200*time.Millisecond)
	var err error
	switch cfg.workload {
	case "batch-multi":
		err = st.batchMulti(ctx)
	case "hot-zipf":
		err = st.hotZipf(ctx)
	case "mutate-mixed":
		err = st.mutateMixed(ctx)
	}
	rss := rssSamples()
	phase("main phase done")
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(rss) == 0 {
		return nil, errors.New("no resident-memory sample of the daemon")
	}
	st.rss = median(rss)
	if hwm, err := rssMB(st.d.cmd.Process.Pid, "VmHWM:"); err == nil {
		fmt.Fprintf(os.Stderr, "perfbench: ssspd VmRSS median %.1f MiB over %d samples, VmHWM %.1f MiB\n", st.rss, len(rss), hwm)
	}
	var layers map[string]metric
	if cfg.trace {
		if layers, err = st.serveLayers(ctx); err != nil {
			return nil, err
		}
	} else {
		if err := st.afterMain(ctx); err != nil {
			return nil, err
		}
	}
	st.d.stop(5 * time.Second)
	phase("post-phase measurements done")
	if cfg.trace {
		if err := st.processLayers(layers); err != nil {
			return nil, err
		}
	}
	return st.report(layers)
}

// traceSlice marks every other second of a traced run's main phase as
// traced, so traced and untraced requests share the same conditions.
func traceSlice(at time.Duration) bool { return int(at/time.Second)%2 == 1 }

func (st *runState) tracedOpen() func(i int) bool {
	if !st.cfg.trace {
		return nil
	}
	return func(i int) bool { return traceSlice(st.reqs[i].at) }
}

func (st *runState) tracedClosed() func(i int, at time.Duration) bool {
	if !st.cfg.trace {
		return nil
	}
	return func(_ int, at time.Duration) bool { return traceSlice(at) }
}

func (st *runState) graphs() []*graph.Graph {
	out := make([]*graph.Graph, len(st.gs))
	for i, g := range st.gs {
		out[i] = g.g
	}
	return out
}

// hotZipf: open loop at hotRate after an untimed warm-up that fills the
// caches with the hot sources.
func (st *runState) hotZipf(ctx context.Context) error {
	dur := time.Duration(st.cfg.seconds) * time.Second
	z := newZipfPicker(int64(st.cfg.seed), st.graphs())
	st.warmHot(ctx, z)
	st.reqs = openSchedule(z.stream(int64(st.cfg.seed)*7+2), hotRate, dur)
	st.results, st.wall = runOpen(ctx, st.lg, st.reqs, st.cfg.conns, st.tracedOpen(), hooks{})
	return nil
}

// warmHot caches every hot source.
func (st *runState) warmHot(ctx context.Context, z *zipfPicker) {
	runClosed(ctx, st.lg, z.warmList(), st.cfg.conns, time.Minute, false, nil, hooks{})
}

// batchMulti: closed loop after one untimed batch per graph, each client
// pinned to one graph. A client that always sends to one graph always
// shares the cores with the other graph's batches, so each graph's latency
// forms one tight cluster; a shared queue would mix co-running pairs from
// request to request and move the percentiles between runs.
func (st *runState) batchMulti(ctx context.Context) error {
	gs := st.graphs()
	warm := batchRequests(int64(st.cfg.seed)*7+1, gs, 2*len(gs))
	runClosed(ctx, st.lg, warm, st.cfg.conns, time.Minute, false, nil, hooks{})
	st.reqs, st.results, st.wall = runClosed(ctx, st.lg, batchRequests(int64(st.cfg.seed)*7+2, gs, 4000), st.cfg.conns,
		time.Duration(st.cfg.seconds)*time.Second, true, st.tracedClosed(), hooks{})
	return nil
}

// writeResult is one mutation acknowledgement.
type writeResult struct {
	kind     int // 0 weight decrease, 1 insert, 2 delete
	failed   bool
	errMsg   string
	lat, lag time.Duration
	status   string
	fallback bool
	aliased  bool
}

// postMutation sends one batch and records its acknowledgement.
func postMutation(hc *http.Client, base, name string, b *mutate.Batch, w *writeResult) {
	var ack struct {
		Status   string `json:"status"`
		Fallback bool   `json:"fallback"`
		Aliased  bool   `json:"aliased"`
	}
	code, err := adminPost(hc, base+"/graphs/"+name+"/mutate", b, &ack)
	if err != nil {
		w.failed, w.errMsg = true, err.Error()
		return
	}
	w.status, w.fallback, w.aliased = ack.Status, ack.Fallback, ack.Aliased
	if code != http.StatusOK {
		w.failed, w.errMsg = true, fmt.Sprintf("mutation answered %d (%s)", code, ack.Status)
	}
}

// mutateMixed: one closed-loop reader and one writer posting a mutation
// batch every writeEvery, both on rand16. Each read records the window of
// graph versions it may legally have seen: from the mutations acknowledged
// before it was sent to those sent before it completed.
func (st *runState) mutateMixed(ctx context.Context) error {
	dur := time.Duration(st.cfg.seconds) * time.Second
	z := newZipfPicker(int64(st.cfg.seed), st.graphs())
	st.warmHot(ctx, z)
	st.reqs = pointList(z.stream(int64(st.cfg.seed)*7+2), 100000, false)
	n := int(dur/writeEvery) + 1
	st.plan = mutationPlan(st.gs[0].g, st.cfg.seed, n, mutateOps)
	st.writes = make([]writeResult, 0, n)

	var sent, acked atomic.Int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		start := time.Now()
		for i, b := range st.plan {
			due := start.Add(time.Duration(i) * writeEvery)
			if due.Sub(start) >= dur {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Until(due)):
			}
			w := writeResult{kind: i % 3, lag: time.Since(due)}
			sent.Add(1)
			postMutation(st.lg.hc, st.d.url(), st.names[0], b, &w)
			w.lat = time.Since(due)
			if !w.failed {
				acked.Add(1)
			}
			st.writes = append(st.writes, w)
		}
	}()
	st.reqs, st.results, st.wall = runClosed(ctx, st.lg, st.reqs, 1, dur, false, st.tracedClosed(), hooks{
		sent: func(res *result) { res.lo = int(acked.Load()) },
		done: func(res *result) { res.hi = int(sent.Load()) },
	})
	<-writerDone
	return nil
}

// afterMain runs the untraced run's post-phase measurements on the same
// daemons: the rate ladder for max_rate_qps and, on workloads that do not
// write, a sequential mutation probe for the mutate_* metrics.
func (st *runState) afterMain(ctx context.Context) error {
	// An open loop on conns connections cannot sustain more than the same
	// traffic closed loop, so the closed-loop saturation rate x bounds the
	// ladder. The saturation rate of one daemon process varies by about a
	// tenth from process to process (steady within one), so x is the median
	// over this daemon and two fresh ones booted for the purpose. The
	// search starts at the highest step at or below 0.7x and steps down
	// until one passes: nearer saturation an open loop's p99 on two
	// connections passes or fails by chance from run to run. The ladder
	// shares the main phase's hot set.
	hot := newZipfPicker(int64(st.cfg.seed), st.graphs())
	z := hot.stream(int64(st.cfg.seed)*7 + 3)
	xs := []float64{st.measureClosedRate(ctx, st.lg, hot, z)}
	for i := 0; i < 2; i++ {
		d, _, err := bootDaemon(ctx, st.cfg, st.dir, st.gs)
		if err != nil {
			return fmt.Errorf("rate boot %d: %w", i+1, err)
		}
		c := &client{hc: newHTTPClient(st.cfg.conns), base: d.url(), names: st.names}
		xs = append(xs, st.measureClosedRate(ctx, c, hot, z))
		c.hc.CloseIdleConnections()
		d.stop(5 * time.Second)
	}
	x := median(xs)
	fmt.Fprintf(os.Stderr, "perfbench: closed-loop rate x = %.0f/s (per daemon %.0f)\n", x, xs)
	st.xRate = x
	top := sort.SearchFloat64s(ladderRates, 0.7*x+0.5) - 1
	k := top
	for ; k >= 0; k-- {
		rs, _ := runOpen(ctx, st.lg, openSchedule(z, ladderRates[k], ladderStep), st.cfg.conns, nil, hooks{})
		if ladderPass(rs) {
			break
		}
	}
	if k < 0 {
		return fmt.Errorf("rate ladder: even %.0f/s misses the %.0f ms p99 limit", ladderRates[0], ladderLimit)
	}
	st.maxRate = ladderRates[k]
	phase("rate ladder done: %.0f/s, %d steps below the start at %.0f/s", st.maxRate, top-k, ladderRates[top])
	if st.cfg.workload == "mutate-mixed" {
		return nil
	}
	for i, b := range mutationPlan(st.gs[0].g, st.cfg.seed+1, probeBatches, mutateOps) {
		w := writeResult{kind: i % 3}
		t := time.Now()
		postMutation(st.lg.hc, st.d.url(), st.names[0], b, &w)
		w.lat = time.Since(t)
		st.probe = append(st.probe, w)
	}
	return nil
}

// measureClosedRate is the closed-loop rate of the point mix drawn from z
// on c's daemon, with the hot set cached and after an untimed half second.
func (st *runState) measureClosedRate(ctx context.Context, c *client, hot, z *zipfPicker) float64 {
	runClosed(ctx, c, hot.warmList(), st.cfg.conns, time.Minute, false, nil, hooks{})
	runClosed(ctx, c, pointList(z, 100000, true), st.cfg.conns, time.Second/2, false, nil, hooks{})
	rs, _, wall := runClosed(ctx, c, pointList(z, 100000, true), st.cfg.conns, 2*time.Second, false, nil, hooks{})
	return float64(len(rs)) / wall.Seconds()
}

// ladderPass judges one ladder step: every request answered, p99 within
// the limit, and no growing backlog — the last tenth of the step's
// requests left on time.
func ladderPass(rs []result) bool {
	if len(rs) == 0 {
		return false
	}
	for _, r := range rs {
		if r.failed {
			return false
		}
	}
	if quantile(latencies(rs), 0.99) > ladderLimit {
		return false
	}
	tail := rs[len(rs)-len(rs)/10-1:]
	lags := make([]float64, len(tail))
	for i, r := range tail {
		lags[i] = ms(r.lag)
	}
	return median(lags) < ladderLimit/4
}

// verify checks the sampled answers against the oracle and returns the
// number of wrong answers with the first discrepancy.
func (st *runState) verify() (int, error) {
	orc := newOracle()
	wrong := 0
	var first error
	bad := func(err error) {
		wrong++
		if first == nil {
			first = err
		}
	}
	if st.cfg.workload == "mutate-mixed" {
		return st.verifyVersions(orc)
	}
	batches := 0
	for i := range st.results {
		r, res := &st.reqs[i], &st.results[i]
		if !r.check || res.failed {
			continue
		}
		g := st.gs[r.graph]
		if r.kind == kBatch {
			k := batches % len(r.items) // one item per sampled batch, rotating
			batches++
			d := orc.dist(g.g, g.name, 0, r.items[k])
			reached, ecc := summarize(d)
			if res.reached[k] != reached || res.ecc[k] != ecc {
				bad(fmt.Errorf("%s batch item srcs=%v: reached/ecc %d/%d, want %d/%d",
					g.name, r.items[k], res.reached[k], res.ecc[k], reached, ecc))
			}
			continue
		}
		if err := checkPoint(r, res, orc.dist(g.g, g.name, 0, []int32{r.src})); err != nil {
			bad(fmt.Errorf("%s: %w", g.name, err))
		}
	}
	return wrong, first
}

// checkPoint compares one point-query answer with the reference vector d.
func checkPoint(r *request, res *result, d []int64) error {
	switch r.kind {
	case kDist:
		if res.dist != jsonDist(d[r.dst]) {
			return fmt.Errorf("dist(%d,%d) = %d, want %d", r.src, r.dst, res.dist, jsonDist(d[r.dst]))
		}
	case kSSSP:
		reached, ecc := summarize(d)
		if res.reached[0] != reached || res.ecc[0] != ecc {
			return fmt.Errorf("sssp(%d): reached/ecc %d/%d, want %d/%d", r.src, res.reached[0], res.ecc[0], reached, ecc)
		}
	case kFull:
		var a struct {
			Dist []int64 `json:"dist"`
		}
		if err := json.Unmarshal(res.raw, &a); err != nil {
			return fmt.Errorf("sssp(%d) full: malformed answer: %v", r.src, err)
		}
		if len(a.Dist) != len(d) {
			return fmt.Errorf("sssp(%d) full: %d distances, want %d", r.src, len(a.Dist), len(d))
		}
		for v, x := range d {
			if a.Dist[v] != jsonDist(x) {
				return fmt.Errorf("sssp(%d) full: dist[%d] = %d, want %d", r.src, v, a.Dist[v], jsonDist(x))
			}
		}
	}
	return nil
}

// verifyVersions checks mutate-mixed's sampled reads: each must match the
// reference graph at some version in its window. Versions are rebuilt in
// order with mutate.ReferenceApply, holding one graph at a time.
func (st *runState) verifyVersions(orc *oracle) (int, error) {
	type pending struct {
		i  int
		ok bool
	}
	var reads []*pending
	maxHi := 0
	for i := range st.results {
		if st.reqs[i].check && !st.results[i].failed {
			reads = append(reads, &pending{i: i})
			maxHi = max(maxHi, st.results[i].hi)
		}
	}
	// A version is built only when a read still unmatched may have seen
	// it, applying every batch since the last one built in one call.
	g := st.gs[0]
	cur, at := g.g, 0
	for v := 0; v <= maxHi; v++ {
		var due []*pending
		for _, p := range reads {
			res := &st.results[p.i]
			if !p.ok && res.lo <= v && v <= res.hi {
				due = append(due, p)
			}
		}
		if len(due) == 0 {
			continue
		}
		if v > at {
			next, err := mutate.ReferenceApply(cur, st.plan[at:v]...)
			if err != nil {
				return 0, fmt.Errorf("reference apply of mutations %d to %d: %w", at+1, v, err)
			}
			cur, at = next, v
		}
		for _, p := range due {
			p.ok = checkPoint(&st.reqs[p.i], &st.results[p.i], orc.dist(cur, g.name, v, []int32{st.reqs[p.i].src})) == nil
		}
	}
	wrong := 0
	var first error
	for _, p := range reads {
		if !p.ok {
			wrong++
			if first == nil {
				res := &st.results[p.i]
				first = fmt.Errorf("read %d (src %d) matches no graph version in [%d,%d]",
					p.i, st.reqs[p.i].src, res.lo, res.hi)
			}
		}
	}
	return wrong, first
}

// premise checks that the run exercised what its workload is for, counted
// from the answers' via and solver fields.
func (st *runState) premise(q provenance) error {
	switch st.cfg.workload {
	case "hot-zipf":
		if share := q.hitShare(); share < minHitShare {
			return fmt.Errorf("only %.1f%% of answers came from the cache or dedup (premise: %.0f%%)", 100*share, 100*minHitShare)
		}
	case "batch-multi":
		if q.cache > 0 {
			return fmt.Errorf("%d batch items were cache hits (premise: none)", q.cache)
		}
		if q.thorup != q.total() {
			return fmt.Errorf("%d of %d batch items solved with Thorup (premise: all)", q.thorup, q.total())
		}
	case "mutate-mixed":
		for i, w := range st.writes {
			if w.failed || w.fallback || w.status != "mutated" {
				return fmt.Errorf("mutation %d not acknowledged on the incremental path: status %q fallback=%v %s",
					i, w.status, w.fallback, w.errMsg)
			}
			if w.kind == 0 && !w.aliased {
				return fmt.Errorf("weight-only mutation %d did not alias its parent's arrays", i)
			}
		}
	}
	return nil
}

// provenance totals the via/solver counts of answered queries.
type provenance struct{ cache, dedup, solve, thorup, delta int }

func (q provenance) total() int { return q.cache + q.dedup + q.solve }

func (q provenance) hitShare() float64 {
	if q.total() == 0 {
		return 0
	}
	return float64(q.cache+q.dedup) / float64(q.total())
}

func tally(rs []result) provenance {
	var q provenance
	for _, r := range rs {
		if r.failed {
			continue
		}
		q.cache += r.cache
		q.dedup += r.dedup
		q.solve += r.solve
		q.thorup += r.thorup
		q.delta += r.delta
	}
	return q
}

// report verifies the answers, checks the premise and assembles the result.
func (st *runState) report(layers map[string]metric) (*outcome, error) {
	out := &outcome{Correct: true, Metrics: map[string]metric{}}
	for i, r := range st.results {
		out.Attempted += st.reqs[i].queries()
		if r.failed {
			out.Failed += st.reqs[i].queries()
			if out.Failed == st.reqs[i].queries() {
				fmt.Fprintf(os.Stderr, "perfbench: first failed request: %s\n", r.errMsg)
			}
		}
	}
	for _, w := range append(append([]writeResult(nil), st.writes...), st.probe...) {
		out.Attempted++
		if w.failed {
			out.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: failed mutation: %s\n", w.errMsg)
		}
	}
	if out.Attempted == 0 {
		return nil, errors.New("no request was attempted")
	}
	wrong, err := st.verify()
	if err != nil && wrong == 0 {
		return nil, err
	}
	if wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers; first: %v\n", wrong, err)
		out.Failed += wrong
		out.Correct = false
	}
	phase("verified")
	q := tally(st.results)
	if err := st.premise(q); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: premise failed, run invalid: %v\n", st.cfg.workload, err)
		out.Correct = false
	}
	if !out.Correct {
		return out, nil
	}
	lat := latencies(st.results)
	errRate := float64(out.Failed) / float64(out.Attempted)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: %d attempted, %d failed (error_rate %.4f), hit share %.3f, thorup %d delta %d of %d answers\n",
		st.cfg.workload, st.cfg.seed, out.Attempted, out.Failed, errRate, q.hitShare(), q.thorup, q.delta, q.total())
	if layers != nil {
		out.Metrics = layers
		return out, nil
	}
	setup := make([]float64, len(st.setup))
	for i, d := range st.setup {
		setup[i] = d.Seconds()
	}
	// Latency percentiles are medians over windows of the main phase (as
	// many as the samples allow): a burst that slows one window (a GC
	// cycle, a neighbour on the host) moves that window's percentile, not
	// the reported one.
	span := time.Duration(st.cfg.seconds) * time.Second
	starts := make([]time.Duration, len(st.results))
	answered := 0
	for i, r := range st.results {
		starts[i] = r.start
		if !r.failed {
			answered += st.reqs[i].queries()
		}
	}
	writes, wspan := st.writes, span
	if len(writes) == 0 {
		// The probe's batches are sequential; they are windowed by index.
		writes, wspan = st.probe, time.Duration(len(st.probe))*writeEvery
	}
	wlat := make([]float64, len(writes))
	wstarts := make([]time.Duration, len(writes))
	for i, w := range writes {
		wstarts[i] = time.Duration(i) * writeEvery
		wlat[i] = ms(w.lat)
		if w.failed {
			wlat[i] = math.Inf(1)
		}
	}
	m := out.Metrics
	m["setup_s"] = metric{median(setup), "s"}
	// hot-zipf's open loop offers a fixed number of requests, so its own
	// answered rate is set by the schedule; its throughput is x instead.
	throughput := float64(answered) / st.wall.Seconds()
	if st.cfg.workload == "hot-zipf" {
		throughput = st.xRate
	}
	m["throughput_qps"] = metric{throughput, "1/s"}
	m["latency_p50_ms"] = metric{windowed(lat, starts, span, 0.50), "ms"}
	m["latency_p95_ms"] = metric{windowed(lat, starts, span, 0.95), "ms"}
	m["latency_p99_ms"] = metric{windowed(lat, starts, span, 0.99), "ms"}
	m["mutate_p50_ms"] = metric{windowed(wlat, wstarts, wspan, 0.50), "ms"}
	m["mutate_p95_ms"] = metric{windowed(wlat, wstarts, wspan, 0.95), "ms"}
	m["max_rate_qps"] = metric{st.maxRate, "1/s"}
	m["rss_mb"] = metric{st.rss, "MB"}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-16s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-16s %12.4f (samples: %d requests, %d writes)\n", "error_rate", errRate, len(lat), len(wlat))
	for gi, name := range st.names {
		var gl []float64
		for i := range st.results {
			if st.reqs[i].graph == gi {
				gl = append(gl, lat[i])
			}
		}
		fmt.Fprintf(os.Stderr, "  %-16s %d requests, p50 %.1f ms, p95 %.1f ms\n", name, len(gl), quantile(gl, 0.5), quantile(gl, 0.95))
	}
	return out, nil
}
