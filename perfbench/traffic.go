package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/graph"
)

// Traffic shape constants. The point-query mix is the repository's
// committed Zipf traffic (testdata/workloads/zipf-single.jsonl and
// mixed-mutate.jsonl): /sssp and /dist at 3:1, a fullFraction share of the
// /sssp queries asking for the full vector, and Zipf sources with s=zipfS.
// The sources are drawn over hotSet sources per graph, all of which fit in
// the daemon's default result cache, except every coldEvery-th, drawn
// uniformly from all vertices, which misses. The miss share (1 in 50) is
// thus fixed by design, not left to how far a Zipf tail happens to reach in
// a run. With the full-vector share (7.5%) it places each reported
// percentile inside one population — p50 among plain hits, p95 among
// full-vector hits, p99 among misses — rather than on the sparse boundary
// between two, where it would move from run to run.
// checkEvery sets the correctness sample: every checkEvery-th request is
// verified.
const (
	zipfS        = 1.1
	ssspShare    = 0.75
	fullFraction = 0.1
	hotSet       = 32
	coldEvery    = 50
	checkEvery   = 8
	batchItems   = 8
	batchSrcs    = 4
)

// zipfPicker draws point queries over a seeded permutation of each graph's
// vertices, whose first hotSet entries are the hot set, so the hot set
// differs from seed to seed.
type zipfPicker struct {
	rnd   *rand.Rand
	perms [][]int32
	zipfs []*rand.Zipf
	n     int
}

// newZipfPicker fixes each graph's hot set from seed; draw streams come
// from stream.
func newZipfPicker(seed int64, gs []*graph.Graph) *zipfPicker {
	rnd := rand.New(rand.NewSource(seed))
	z := &zipfPicker{}
	for _, g := range gs {
		perm := make([]int32, g.NumVertices())
		for i, p := range rnd.Perm(len(perm)) {
			perm[i] = int32(p)
		}
		z.perms = append(z.perms, perm)
	}
	return z
}

// stream returns a picker over the same hot sets with its own draws, so
// the measured phase and the rate ladder share the hot set but not the
// request sequence.
func (z *zipfPicker) stream(seed int64) *zipfPicker {
	s := &zipfPicker{rnd: rand.New(rand.NewSource(seed)), perms: z.perms}
	for range z.perms {
		s.zipfs = append(s.zipfs, rand.NewZipf(s.rnd, zipfS, 1, hotSet-1))
	}
	return s
}

// warmList is one /sssp&full=1 query per hot source of every graph: sent
// closed loop before a measured phase, it leaves the hot set cached with
// its JSON form built.
func (z *zipfPicker) warmList() []request {
	var out []request
	for gi, p := range z.perms {
		for _, src := range p[:hotSet] {
			out = append(out, request{kind: kFull, graph: gi, src: src})
		}
	}
	return out
}

// point draws one point query on a uniformly chosen graph: a quarter
// /dist, three quarters /sssp, of which a tenth with the full vector. The
// cold queries take the graphs in turn instead: a miss costs several times
// more on rand16 than on grid16, and with the graph drawn at random the
// split of a second's misses between them moved the closed-loop rate by a
// fifth.
func (z *zipfPicker) point() request {
	z.n++
	gi := z.rnd.Intn(len(z.perms))
	if z.n%coldEvery == 0 {
		gi = z.n / coldEvery % len(z.perms)
	}
	r := request{graph: gi}
	if z.n%coldEvery == 0 {
		r.src = int32(z.rnd.Intn(len(z.perms[gi])))
	} else {
		r.src = z.perms[gi][z.zipfs[gi].Uint64()]
	}
	switch p := z.rnd.Float64(); {
	case p >= ssspShare:
		r.kind = kDist
		r.dst = int32(z.rnd.Intn(len(z.perms[gi])))
	case p < ssspShare*fullFraction:
		r.kind = kFull
	default:
		r.kind = kSSSP
	}
	return r
}

// openSchedule lays out round(rate*dur) Poisson arrivals over dur: the
// arrival times are exponential gaps rescaled to span the phase, so every
// run of a phase offers exactly the same number of requests.
func openSchedule(z *zipfPicker, rate float64, dur time.Duration) []request {
	n := int(math.Round(rate * dur.Seconds()))
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = z.rnd.ExpFloat64()
		total += gaps[i]
	}
	out := make([]request, n)
	at := 0.0
	for i := range out {
		at += gaps[i]
		out[i] = z.point()
		out[i].at = time.Duration(at / total * float64(dur))
		out[i].check = i%checkEvery == 0
	}
	return out
}

// pointList is n Zipf point queries for a closed loop; without full, the
// full-vector share is sent as plain /sssp (the mutate-mixed reader
// measures the read path, not the transfer).
func pointList(z *zipfPicker, n int, full bool) []request {
	out := make([]request, n)
	for i := range out {
		r := z.point()
		if r.kind == kFull && !full {
			r.kind = kSSSP
		}
		r.check = i%checkEvery == 0
		out[i] = r
	}
	return out
}

// batchRequests is n /batch requests, each of batchItems items with
// batchSrcs distinct random sources. No source set repeats, so no item can
// be answered from the cache. Request i goes to graph i%len(gs), so a
// client pinned to every len(gs)-th request keeps to one graph; every other
// request of each graph is sampled for the oracle.
func batchRequests(seed int64, gs []*graph.Graph, n int) []request {
	rnd := rand.New(rand.NewSource(seed))
	seen := map[[batchSrcs]int32]bool{}
	out := make([]request, n)
	for i := range out {
		gi := i % len(gs)
		nv := gs[gi].NumVertices()
		r := request{kind: kBatch, graph: gi, check: i/len(gs)%2 == 0}
		for len(r.items) < batchItems {
			var set [batchSrcs]int32
			for j := range set {
				set[j] = int32(rnd.Intn(nv))
			}
			if seen[set] || hasDup(set[:]) {
				continue
			}
			seen[set] = true
			r.items = append(r.items, append([]int32(nil), set[:]...))
		}
		out[i] = r
	}
	return out
}

func hasDup(xs []int32) bool {
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if xs[i] == xs[j] {
				return true
			}
		}
	}
	return false
}

// latencies returns the results' latencies in ms; a failed request counts
// as missing every latency limit (+Inf).
func latencies(rs []result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		if r.failed {
			out[i] = math.Inf(1)
		} else {
			out[i] = ms(r.lat)
		}
	}
	return out
}
