package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// kind is a request shape.
type kind uint8

const (
	kDist  kind = iota // GET /dist: one point distance
	kSSSP              // GET /sssp: reached count and eccentricity
	kFull              // GET /sssp&full=1: the whole distance vector
	kBatch             // POST /batch: multi-source items
)

// request is one scheduled query. at is its send time as an offset from
// the start of its phase (open loop only).
type request struct {
	at    time.Duration
	kind  kind
	graph int
	src   int32
	dst   int32
	items [][]int32
	check bool // sampled for the correctness oracle
}

// queries is how many answers the request carries (batch items count one
// each).
func (r *request) queries() int {
	if r.kind == kBatch {
		return len(r.items)
	}
	return 1
}

// result is one request's outcome as the client saw it.
type result struct {
	failed   bool
	errMsg   string
	lat, lag time.Duration
	start    time.Duration // send time, offset from phase start
	end      time.Time     // when the answer was read, before it is parsed
	traced   bool
	// Answer provenance, counted per query from the via/solver fields.
	cache, dedup, solve int
	thorup, delta       int
	// The answer itself, kept for sampled requests only.
	dist    int64
	reached []int
	ecc     []int64
	raw     []byte // a sampled full-vector answer, decoded when verified
	// lo/hi bound the graph version a mutate-mixed read may have seen.
	lo, hi int
}

// client sends queries to one entry point (a daemon or the router).
type client struct {
	hc    *http.Client
	base  string
	names []string // graph names by request graph index
}

// newHTTPClient caps its connections per host at conns: the load
// generator never opens more connections than the host has cores.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

// answer is the union of the per-endpoint response bodies.
type answer struct {
	Dist         json.RawMessage `json:"dist"`
	Reached      int             `json:"reached"`
	Eccentricity int64           `json:"eccentricity"`
	Solver       string          `json:"solver"`
	Via          string          `json:"via"`
	Results      []struct {
		Reached      int    `json:"reached"`
		Eccentricity int64  `json:"eccentricity"`
		Solver       string `json:"solver"`
		Via          string `json:"via"`
		Error        string `json:"error"`
	} `json:"results"`
}

// do sends r and fills res; of the timings it sets only end, when the
// answer has been read, so decoding a sampled answer is not timed.
func (c *client) do(ctx context.Context, r *request, traceID string, res *result) {
	defer func() {
		if res.end.IsZero() {
			res.end = time.Now()
		}
	}()
	var (
		req *http.Request
		err error
	)
	g := url.QueryEscape(c.names[r.graph])
	switch r.kind {
	case kDist:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/dist?graph=%s&src=%d&dst=%d", c.base, g, r.src, r.dst), nil)
	case kSSSP:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/sssp?graph=%s&src=%d", c.base, g, r.src), nil)
	case kFull:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/sssp?graph=%s&src=%d&full=1", c.base, g, r.src), nil)
	case kBatch:
		var b strings.Builder
		b.WriteString(`{"queries":[`)
		for i, it := range r.items {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"srcs":[`)
			for j, s := range it {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(int(s)))
			}
			b.WriteString(`]}`)
		}
		b.WriteString(`]}`)
		req, err = http.NewRequestWithContext(ctx, http.MethodPost,
			fmt.Sprintf("%s/batch?graph=%s", c.base, g), strings.NewReader(b.String()))
	}
	if err != nil {
		res.fail(err.Error())
		return
	}
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		res.fail(err.Error())
		return
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	res.end = time.Now()
	if err != nil {
		res.fail(err.Error())
		return
	}
	body := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		res.fail(fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body[:min(len(body), 200)])))
		return
	}
	parseAnswer(r, body, res)
}

// bodyBufs recycles response-body buffers: a full distance vector is half a
// megabyte, and allocating one per answer would make the load generator's
// garbage collector compete with the daemon for the cores. Nothing parsed
// from a body refers to its bytes.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (res *result) fail(msg string) {
	res.failed = true
	res.errMsg = msg
}

// note counts one answered query's provenance.
func (res *result) note(via, solver string) {
	switch via {
	case "cache":
		res.cache++
	case "dedup":
		res.dedup++
	case "solve":
		res.solve++
	default:
		res.fail("answer without a via field")
	}
	switch solver {
	case "thorup":
		res.thorup++
	case "delta":
		res.delta++
	}
}

// parseAnswer decodes a 200 body. Of a full distance vector only the
// trailing via and solver fields are read (JSON objects are written with
// sorted keys, so both come after the vector); a sampled one is kept
// verbatim and decoded by the oracle after the run, so decoding half a
// megabyte does not take a core from the daemon mid-phase.
func parseAnswer(r *request, body []byte, res *result) {
	if r.kind == kFull {
		res.note(tailField(body, `"via":"`), tailField(body, `"solver":"`))
		if r.check {
			res.raw = append([]byte(nil), body...)
		}
		return
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		res.fail("malformed body: " + err.Error())
		return
	}
	switch r.kind {
	case kBatch:
		if len(a.Results) != len(r.items) {
			res.fail(fmt.Sprintf("batch answered %d of %d items", len(a.Results), len(r.items)))
			return
		}
		for _, it := range a.Results {
			if it.Error != "" {
				res.fail("batch item: " + it.Error)
				return
			}
			res.note(it.Via, it.Solver)
			res.reached = append(res.reached, it.Reached)
			res.ecc = append(res.ecc, it.Eccentricity)
		}
	case kDist:
		res.note(a.Via, a.Solver)
		if err := json.Unmarshal(a.Dist, &res.dist); err != nil {
			res.fail("malformed dist: " + err.Error())
		}
	case kSSSP:
		res.note(a.Via, a.Solver)
		res.reached, res.ecc = []int{a.Reached}, []int64{a.Eccentricity}
	}
}

// tailField extracts the string value following the last occurrence of
// prefix in body.
func tailField(body []byte, prefix string) string {
	i := bytes.LastIndex(body, []byte(prefix))
	if i < 0 {
		return ""
	}
	rest := body[i+len(prefix):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// hooks let a workload stamp a request with state at send and completion
// time (mutate-mixed records its mutation window here).
type hooks struct {
	sent func(res *result)
	done func(res *result)
}

// runOpen plays reqs open loop: each request is due at start+at, whatever
// is still in flight. At most conns requests are outstanding (one per
// connection); a request that finds every connection busy waits, and its
// latency runs from when it was due, so queueing counts. lag is how late
// the request actually left.
// It returns the results and the wall time from the start to the last
// answer.
func runOpen(ctx context.Context, c *client, reqs []request, conns int, traced func(i int) bool, h hooks) ([]result, time.Duration) {
	out := make([]result, len(reqs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r, res := &reqs[i], &out[i]
				due := start.Add(r.at)
				if d := time.Until(due); d > 0 {
					select {
					case <-ctx.Done():
					case <-time.After(d):
					}
				}
				if ctx.Err() != nil {
					res.fail("run cancelled before send")
					continue
				}
				sent := time.Now()
				res.start, res.lag = sent.Sub(start), sent.Sub(due)
				id := ""
				if traced != nil && traced(i) {
					res.traced, id = true, fmt.Sprintf("pb-%d", i)
				}
				if h.sent != nil {
					h.sent(res)
				}
				c.do(ctx, r, id, res)
				res.lat = res.end.Sub(due)
				if h.done != nil {
					h.done(res)
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// runClosed plays reqs closed loop on conns clients, each sending its next
// request as soon as the previous one is answered, until dur has passed.
// Clients share one queue of reqs unless pinned, when client w sends only
// the requests i with i%conns == w, so each client keeps to its own stream.
// It returns the requests sent with their results, in the order of reqs,
// and the wall time used.
func runClosed(ctx context.Context, c *client, reqs []request, conns int, dur time.Duration, pinned bool,
	traced func(i int, at time.Duration) bool, h hooks) ([]request, []result, time.Duration) {
	out := make([]result, len(reqs))
	sent := make([]bool, len(reqs))
	start := time.Now()
	deadline := start.Add(dur)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ctx.Err() == nil && time.Now().Before(deadline); k++ {
				i := w + k*conns
				if !pinned {
					i = int(next.Add(1) - 1)
				}
				if i >= len(reqs) {
					return
				}
				r, res := &reqs[i], &out[i]
				sent[i] = true
				at := time.Now()
				res.start = at.Sub(start)
				id := ""
				if traced != nil && traced(i, res.start) {
					res.traced, id = true, fmt.Sprintf("pb-%d", i)
				}
				if h.sent != nil {
					h.sent(res)
				}
				c.do(ctx, r, id, res)
				res.lat = res.end.Sub(at)
				if h.done != nil {
					h.done(res)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var rs []request
	var results []result
	for i := range reqs {
		if sent[i] {
			rs = append(rs, reqs[i])
			results = append(results, out[i])
		}
	}
	return rs, results, wall
}
