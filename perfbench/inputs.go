package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/dimacs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// graphSpecs are the benchmark's graphs. Snapshot graphs are served from a
// v2 snapshot; the DIMACS graph is served from .gr text plus a .chb
// hierarchy cache that the benchmark warms before any daemon starts.
var graphSpecs = map[string]struct {
	in     gen.Instance
	dimacs bool
}{
	"rand16":  {gen.Instance{Class: gen.Rand, Dist: gen.UWD, LogN: 16, LogC: 16}, false},
	"rmat16s": {gen.Instance{Class: gen.RMAT, Dist: gen.PWD, LogN: 16, LogC: 2}, false},
	"grid16":  {gen.Instance{Class: gen.Grid, Dist: gen.UWD, LogN: 16, LogC: 16}, true},
}

// graphIn is one generated graph: the benchmark's own copy (the oracle runs
// Dijkstra on it) and the files a daemon is given.
type graphIn struct {
	name   string
	g      *graph.Graph
	h      *ch.Hierarchy
	file   string // snapshot, or DIMACS .gr text when dimacs is set
	chb    string // hierarchy cache of a DIMACS graph
	dimacs bool
	// probe is the setup check: a /dist query and its correct answer.
	probeSrc, probeDst int32
	probeDist          int64
}

// makeGraph generates the named graph from seed and writes its files into
// dir. Snapshot graphs are written under their bare name, so a daemon
// started in dir with "-snapshot NAME" serves the graph as NAME.
func makeGraph(dir, name string, seed uint64) (*graphIn, error) {
	spec, ok := graphSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown graph %q", name)
	}
	in := spec.in
	in.Seed = seed
	gi := &graphIn{name: name, dimacs: spec.dimacs}
	g := in.Generate()
	if spec.dimacs {
		gi.file = name + ".gr"
		gi.chb = name + ".chb"
		path := filepath.Join(dir, gi.file)
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := dimacs.WriteGraph(f, g, in.Name()); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		// The copy the daemon will parse, and the cache it will find warm.
		if g, err = readDIMACS(path); err != nil {
			return nil, err
		}
		gi.h = catalog.LoadOrBuildCH(g, filepath.Join(dir, gi.chb), func(string, ...any) {})
	} else {
		gi.file = name
		gi.h = ch.BuildKruskal(g)
		if err := snapshot.WriteFile(filepath.Join(dir, gi.file), g, gi.h); err != nil {
			return nil, err
		}
	}
	gi.g = g
	r := rng.New(seed ^ 0x5e7)
	gi.probeSrc = int32(r.Intn(g.NumVertices()))
	d := multiSource(g, []int32{gi.probeSrc})
	gi.probeDst = gi.probeSrc
	for i := 0; i < 1000; i++ {
		if v := int32(r.Intn(g.NumVertices())); d[v] < graph.Inf {
			gi.probeDst = v
			break
		}
	}
	gi.probeDist = d[gi.probeDst]
	return gi, nil
}

func readDIMACS(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dimacs.ReadGraph(f)
}

// oracle computes reference distances on the benchmark's own copies of the
// graphs with a multi-source Dijkstra.
type oracle struct {
	memo map[string][]int64
}

func newOracle() *oracle { return &oracle{memo: map[string][]int64{}} }

// dist returns the reference distance vector of srcs on g; version keys
// the memo for graphs that change under mutation.
func (o *oracle) dist(g *graph.Graph, key string, version int, srcs []int32) []int64 {
	s := append([]int32(nil), srcs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var kb strings.Builder
	kb.WriteString(key + "@" + strconv.Itoa(version))
	for _, v := range s {
		kb.WriteString("|" + strconv.Itoa(int(v)))
	}
	k := kb.String()
	if d, ok := o.memo[k]; ok {
		return d
	}
	out := multiSource(g, s)
	o.memo[k] = out
	return out
}

// multiSource is Dijkstra from every source at once: all of them start at
// distance 0, so one search gives each vertex its distance to the nearest
// source. It is the oracle's own code, independent of the solvers under
// test.
func multiSource(g *graph.Graph, srcs []int32) []int64 {
	dist := make([]int64, g.NumVertices())
	for i := range dist {
		dist[i] = graph.Inf
	}
	var h distHeap
	for _, s := range srcs {
		dist[s] = 0
		h.push(distEntry{s, 0})
	}
	for len(h) > 0 {
		e := h.pop()
		if e.d > dist[e.v] {
			continue
		}
		ts, ws := g.Neighbors(e.v)
		for i, u := range ts {
			if nd := e.d + int64(ws[i]); nd < dist[u] {
				dist[u] = nd
				h.push(distEntry{u, nd})
			}
		}
	}
	return dist
}

type distEntry struct {
	v int32
	d int64
}

// distHeap is a binary min-heap of tentative distances; stale entries are
// skipped when popped.
type distHeap []distEntry

func (h *distHeap) push(e distEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].d <= s[i].d {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *distHeap) pop() distEntry {
	s := *h
	top := s[0]
	s[0] = s[len(s)-1]
	s = s[:len(s)-1]
	*h = s
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < len(s) && s[l].d < s[m].d {
			m = l
		}
		if r < len(s) && s[r].d < s[m].d {
			m = r
		}
		if m == i {
			return top
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// summarize is the (reached, eccentricity) pair the daemon reports.
func summarize(d []int64) (int, int64) {
	reached, ecc := 0, int64(0)
	for _, x := range d {
		if x < graph.Inf {
			reached++
			if x > ecc {
				ecc = x
			}
		}
	}
	return reached, ecc
}

// jsonDist is the daemon's wire form of a distance: -1 for unreachable.
func jsonDist(d int64) int64 {
	if d >= graph.Inf {
		return -1
	}
	return d
}

// mutationPlan generates a deterministic sequence of mutation batches on g,
// cycling through three shapes that take three different repair paths:
//
//   - weight decreases of existing edges: weight-only, so the new generation
//     aliases the parent's CSR arrays and repairs additively;
//   - inserts of new edges: structural, additive repair;
//   - deletes of the edges the previous insert batch added: general repair.
//
// Every batch touches 2*opsPer vertices, far below the incremental-repair
// threshold, so each one must be acknowledged on the incremental path.
func mutationPlan(g *graph.Graph, seed uint64, batches, opsPer int) []*mutate.Batch {
	r := rng.New(seed ^ 0x3a7e)
	n := g.NumVertices()
	type pair [2]int32
	key := func(u, v int32) pair {
		if u > v {
			u, v = v, u
		}
		return pair{u, v}
	}
	exists := func(u, v int32) bool {
		ts, _ := g.Neighbors(u)
		for _, t := range ts {
			if t == v {
				return true
			}
		}
		return false
	}
	// weight holds the current weight of every edge the plan re-weighted.
	weight := map[pair]uint32{}
	var lastInserted []pair
	out := make([]*mutate.Batch, 0, batches)
	for b := 0; b < batches; b++ {
		batch := &mutate.Batch{}
		used := map[pair]bool{}
		switch b % 3 {
		case 0: // weight decreases
			for len(batch.Ops) < opsPer {
				u := int32(r.Intn(n))
				ts, ws := g.Neighbors(u)
				if len(ts) == 0 {
					continue
				}
				i := r.Intn(len(ts))
				v := ts[i]
				k := key(u, v)
				if u == v || used[k] {
					continue
				}
				w, ok := weight[k]
				if !ok {
					w = minWeight(g, u, v, ws[i])
				}
				if w <= 1 {
					continue
				}
				w /= 2
				weight[k] = w
				used[k] = true
				batch.Ops = append(batch.Ops, mutate.Op{Op: mutate.OpSetWeight, U: k[0], V: k[1], W: w})
			}
		case 1: // inserts of new edges
			lastInserted = lastInserted[:0]
			for len(batch.Ops) < opsPer {
				u, v := int32(r.Intn(n)), int32(r.Intn(n))
				k := key(u, v)
				if u == v || used[k] || exists(u, v) {
					continue
				}
				used[k] = true
				lastInserted = append(lastInserted, k)
				w := uint32(r.Intn(int(g.MaxWeight()))) + 1
				batch.Ops = append(batch.Ops, mutate.Op{Op: mutate.OpInsert, U: k[0], V: k[1], W: w})
			}
		case 2: // deletes of the edges just inserted
			for _, k := range lastInserted {
				batch.Ops = append(batch.Ops, mutate.Op{Op: mutate.OpDelete, U: k[0], V: k[1]})
			}
		}
		out = append(out, batch)
	}
	return out
}

// minWeight is the smallest weight among the stored copies of edge (u,v).
func minWeight(g *graph.Graph, u, v int32, w uint32) uint32 {
	ts, ws := g.Neighbors(u)
	for i, t := range ts {
		if t == v && ws[i] < w {
			w = ws[i]
		}
	}
	return w
}
