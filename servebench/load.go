package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries a request's op index to the traced run's handler
// wrapper, so server.http spans join the client span of the same
// request.
const reqHeader = "X-Bench-Req"

// Sample is what the generator recorded for one request op. Times are
// nanoseconds since the stage base.
type Sample struct {
	Kind     OpKind
	UID      int64
	Intended int64
	Sent     int64
	Done     int64
	Status   int
	Failed   bool
	Pred     predictBody
}

// predictBody is the part of a /predict response the benchmark reads.
type predictBody struct {
	Probability   float64 `json:"probability"`
	ServedBy      string  `json:"served_by"`
	SubgraphNodes int     `json:"subgraph_nodes"`
	Sample        int64   `json:"sample_latency_ns"`
	Feature       int64   `json:"feature_latency_ns"`
	Predict       int64   `json:"predict_latency_ns"`
	Total         int64   `json:"total_latency_ns"`
}

// Tick is one Advance or RefreshOnce the event clock ran.
type Tick struct {
	Kind     OpKind
	Start    int64 // ns since the stage base
	Elapsed  time.Duration
	Jobs     int // Advance: window jobs run
	Rows     int // RefreshOnce: rows re-embedded
	DirtyMax int // dirty rows right after the tick
}

// Stage is one open-loop phase at a fixed rate.
type Stage struct {
	QPS     float64
	Base    time.Time
	Samples []Sample
	Ticks   []Tick
	Mem     memDelta
	Wall    time.Duration // base until the last response
}

// memDelta is the Go runtime's allocation and GC work during a stage.
type memDelta struct {
	Mallocs, Bytes, GCs uint64
	PausesNs            []uint64
}

// Client drives one stack over HTTP with at most conns connections.
type Client struct {
	st    *Stack
	http  *http.Client
	conns int
	trace bool
}

// NewClient builds a client with conns keep-alive connections to st.
func NewClient(st *Stack, conns int, trace bool) *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &Client{st: st, http: &http.Client{Transport: tr, Timeout: 10 * time.Second}, conns: conns, trace: trace}
}

// Close drops the client's idle connections.
func (c *Client) Close() { c.http.CloseIdleConnections() }

// Run plays ops open-loop at qps: request op j is due at base + j/qps
// whether or not earlier ones have returned, and its latency counts
// from that due time. Ticks run on the event-clock goroutine in
// sequence order, concurrently with requests. qps <= 0 replays serially
// on one worker with ticks inline (the deterministic replay).
func (c *Client) Run(ctx context.Context, ops []Op, qps float64) Stage {
	nreq := 0
	for _, op := range ops {
		if op.Kind == OpAudit || op.Kind == OpIngest {
			nreq++
		}
	}
	stage := Stage{QPS: qps, Samples: make([]Sample, nreq)}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	stage.Base = time.Now().Add(2 * time.Millisecond)

	if qps <= 0 {
		j := 0
		for _, op := range ops {
			switch op.Kind {
			case OpAudit, OpIngest:
				c.do(ctx, &stage.Samples[j], op, stage.Base, time.Since(stage.Base).Nanoseconds(), j)
				j++
			default:
				stage.Ticks = append(stage.Ticks, c.tick(op, stage.Base))
			}
		}
	} else {
		type ticket struct {
			op       Op
			j        int
			intended int64
		}
		work := make(chan ticket, nreq) // sized to every request: the dispatcher never blocks
		clock := make(chan Op, len(ops)-nreq)
		var wg sync.WaitGroup
		for w := 0; w < c.conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range work {
					c.do(ctx, &stage.Samples[t.j], t.op, stage.Base, t.intended, t.j)
				}
			}()
		}
		clockDone := make(chan struct{})
		go func() {
			defer close(clockDone)
			for op := range clock {
				stage.Ticks = append(stage.Ticks, c.tick(op, stage.Base))
			}
		}()
		interval := float64(time.Second) / qps
		j := 0
		for _, op := range ops {
			if op.Kind != OpAudit && op.Kind != OpIngest {
				clock <- op
				continue
			}
			// Never early: a request sent before it is due would hide the
			// time it should have waited.
			intended := int64(float64(j) * interval)
			if d := time.Duration(intended) - time.Since(stage.Base); d > 0 {
				time.Sleep(d)
			}
			work <- ticket{op: op, j: j, intended: intended}
			j++
		}
		close(work)
		close(clock)
		wg.Wait()
		<-clockDone
	}

	var end int64
	for i := range stage.Samples {
		if stage.Samples[i].Done > end {
			end = stage.Samples[i].Done
		}
	}
	stage.Wall = time.Duration(end)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	stage.Mem = memDelta{
		Mallocs: after.Mallocs - before.Mallocs,
		Bytes:   after.TotalAlloc - before.TotalAlloc,
		GCs:     uint64(after.NumGC - before.NumGC),
	}
	for g := before.NumGC; g < after.NumGC && g < before.NumGC+256; g++ {
		stage.Mem.PausesNs = append(stage.Mem.PausesNs, after.PauseNs[(g+1)%256])
	}
	return stage
}

// do sends one request and records it into s. Any status other than
// the endpoint's success code, a transport error, or an audit answer
// without a serving tier is a failure.
func (c *Client) do(ctx context.Context, s *Sample, op Op, base time.Time, intended int64, req int) {
	s.Kind, s.UID, s.Intended = op.Kind, op.UID, intended
	var (
		r    *http.Request
		err  error
		want int
	)
	if op.Kind == OpAudit {
		r, err = http.NewRequestWithContext(ctx, http.MethodGet,
			"http://"+c.st.Addr+"/predict?uid="+strconv.FormatInt(op.UID, 10), nil)
		want = http.StatusOK
	} else {
		r, err = http.NewRequestWithContext(ctx, http.MethodPost,
			"http://"+c.st.Addr+"/ingest", bytes.NewReader(op.Body))
		want = http.StatusAccepted
	}
	if err != nil {
		s.Failed = true
		return
	}
	if c.trace {
		r.Header.Set(reqHeader, strconv.Itoa(req))
	}
	s.Sent = time.Since(base).Nanoseconds()
	resp, err := c.http.Do(r)
	if err != nil {
		s.Done = time.Since(base).Nanoseconds()
		s.Failed = true
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.Done = time.Since(base).Nanoseconds()
	s.Status = resp.StatusCode
	if err != nil || resp.StatusCode != want {
		s.Failed = true
		return
	}
	if op.Kind == OpAudit {
		if json.Unmarshal(body, &s.Pred) != nil || s.Pred.ServedBy == "" {
			s.Failed = true
		}
	}
}

// tick runs one event-clock op.
func (c *Client) tick(op Op, base time.Time) Tick {
	t := Tick{Kind: op.Kind}
	start := time.Now()
	t.Start = start.Sub(base).Nanoseconds()
	switch op.Kind {
	case OpAdvance:
		t.Jobs = c.st.Sys.Advance(op.At)
	case OpRefresh:
		t.Rows = c.st.Embed.RefreshOnce().Ball
	}
	t.Elapsed = time.Since(start)
	if tab := c.st.Embed.Store().Table(); tab != nil {
		t.DirtyMax = tab.DirtyCount()
	}
	return t
}

// handlerSpans is the traced run's server.http wrapper: it stamps the
// start and end of every handler call that carries a request index.
type handlerSpans struct {
	start []atomic.Int64 // ns since epoch
	end   []atomic.Int64
}

// epoch is the origin of handler stamps; stage bases are converted to
// it, so client and handler times share one monotonic clock.
var epoch = time.Now()

func newHandlerSpans(n int) *handlerSpans {
	return &handlerSpans{start: make([]atomic.Int64, n), end: make([]atomic.Int64, n)}
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(reqHeader)
		if v == "" {
			next.ServeHTTP(w, r)
			return
		}
		i, err := strconv.Atoi(v)
		if err != nil || i < 0 || i >= len(h.start) {
			http.Error(w, fmt.Sprintf("bad %s %q", reqHeader, v), http.StatusBadRequest)
			return
		}
		h.start[i].Store(time.Since(epoch).Nanoseconds())
		next.ServeHTTP(w, r)
		h.end[i].Store(time.Since(epoch).Nanoseconds())
	})
}
