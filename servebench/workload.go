package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/datagen"
)

// Workload is one traffic mix. Ops are paced open-loop at a fixed rate;
// Advance and RefreshOnce ticks are placed in the op sequence itself, so
// the event clock moves with the traffic and a single-worker replay
// sees exactly the same interleaving of ticks and requests.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// IngestFrac is the share of request ops that POST /ingest; the rest
	// are audits (GET /predict).
	IngestFrac float64 `json:"ingest_frac"`
	// Zipf skews audit targets over registered users (0 = uniform).
	// Rank 1 is the user with the most logs in the replayed history.
	Zipf float64 `json:"zipf"`
	// Source is where ingest payloads come from: "replay" re-sends the
	// world's own history shifted past its end, "stream" draws from a
	// datagen.Stream of StreamUsers users anchored at the world's end.
	Source      string `json:"source"`
	StreamUsers int    `json:"stream_users,omitempty"`
	// AdvanceEvery is the request-op period of the Advance tick (0 =
	// never); Advance moves the event clock to the newest ingested event
	// time. RefreshLag is how many request ops after each Advance the
	// RefreshOnce tick runs: rows the Advance dirtied demote their
	// audits to the full path until then.
	AdvanceEvery int `json:"advance_every_ops"`
	RefreshLag   int `json:"refresh_lag_ops"`
	// RefQPS is the reference rate the latency metrics are taken at;
	// Ladder holds the rates tried for max_sustainable_qps, ascending,
	// spanning each workload's knee on a 2-core machine.
	RefQPS float64   `json:"ref_qps"`
	Ladder []float64 `json:"ladder_qps"`
}

// p99LimitMs is the intended-start p99 a ladder rung must meet.
const p99LimitMs = 20

// workloads are the benchmark's traffic mixes; BENCHMARK.json names the
// same three.
var workloads = []Workload{
	{
		Name: "audit-steady",
		Why: "the steady read path: uniform audits on a quiet BN, served by the embed tier; a full-path change " +
			"must show no change here. A 5% ingest trickle (never advanced into the BN) gives the ingest metrics a sample.",
		IngestFrac: 0.05, Source: "replay",
		RefQPS: 800, Ladder: []float64{1400, 2000, 2800, 4000},
	},
	{
		Name: "churn",
		Why: "Zipf(0.99) audits while the world's own history is replayed past its end and 1 h windows close " +
			"every few wall seconds: dirty rows, demotions to the full path and embed refresh carry load.",
		IngestFrac: 0.10, Zipf: 0.99, Source: "replay",
		AdvanceEvery: 400, RefreshLag: 50,
		RefQPS: 500, Ladder: []float64{600, 750, 1000, 1400},
	},
	{
		Name: "ingest-flood",
		Why: "90% ingests from a 20 000-user stream anchored at the world's end, window jobs throughout: " +
			"the write path through behavior.Store and the BN that the read workloads do not load.",
		IngestFrac: 0.90, Source: "stream", StreamUsers: 20000,
		AdvanceEvery: 500, RefreshLag: 0,
		RefQPS: 600, Ladder: []float64{800, 1000, 1400, 2000},
	},
}

func findWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// OpKind is what one op does.
type OpKind uint8

const (
	OpAudit   OpKind = iota // GET /predict?uid=UID
	OpIngest                // POST /ingest with Body
	OpAdvance               // System.Advance(At)
	OpRefresh               // EmbedEngine.RefreshOnce()
)

func (k OpKind) String() string {
	return [...]string{"audit", "ingest", "advance", "refresh"}[k]
}

// Op is one entry of a workload's sequence.
type Op struct {
	Kind OpKind
	UID  int64
	Body []byte    // ingest payload (JSON behavior.Log)
	At   time.Time // Advance target
}

// World is what op generation needs from the assembled world.
type World struct {
	Users []int64        // registered uids, ascending
	Logs  []behavior.Log // the world's history
	End   time.Time      // the event clock after set-up
}

// Generate returns the first n request ops of workload w under seed,
// with the workload's ticks interleaved. The same (w, world, seed, n)
// always gives the same sequence.
func Generate(w Workload, world World, seed uint64, n int) ([]Op, error) {
	if len(world.Users) == 0 {
		return nil, fmt.Errorf("generate %s: no registered users", w.Name)
	}
	rng := rand.New(rand.NewPCG(seed, 0x5e7e_be9c))
	nextIngest, err := newIngestSource(w, world, seed)
	if err != nil {
		return nil, err
	}
	targets := auditOrder(world)
	var cdf []float64
	if w.Zipf > 0 {
		cdf = zipfCDF(len(targets), w.Zipf)
	}
	ops := make([]Op, 0, n+n/50+2)
	var watermark time.Time
	for i := 1; i <= n; i++ {
		if rng.Float64() < w.IngestFrac {
			l := nextIngest()
			body, err := json.Marshal(l)
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", w.Name, err)
			}
			if l.Time.After(watermark) {
				watermark = l.Time
			}
			ops = append(ops, Op{Kind: OpIngest, UID: int64(l.User), Body: body})
		} else {
			var uid int64
			if cdf != nil {
				uid = targets[sort.SearchFloat64s(cdf, rng.Float64()*cdf[len(cdf)-1])]
			} else {
				uid = world.Users[rng.IntN(len(world.Users))]
			}
			ops = append(ops, Op{Kind: OpAudit, UID: uid})
		}
		if w.AdvanceEvery > 0 && i%w.AdvanceEvery == 0 && watermark.After(world.End) {
			ops = append(ops, Op{Kind: OpAdvance, At: watermark})
		}
		if w.AdvanceEvery > 0 && i%w.AdvanceEvery == w.RefreshLag && i > w.RefreshLag {
			ops = append(ops, Op{Kind: OpRefresh})
		}
	}
	return ops, nil
}

// auditOrder ranks registered users by how many history logs they own,
// most active first (ties by uid): under a Zipf mix the hottest targets
// are the users whose neighborhoods the replay churns most.
func auditOrder(world World) []int64 {
	count := make(map[int64]int, len(world.Users))
	for _, l := range world.Logs {
		count[int64(l.User)]++
	}
	out := append([]int64(nil), world.Users...)
	sort.SliceStable(out, func(i, j int) bool {
		if count[out[i]] != count[out[j]] {
			return count[out[i]] > count[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// zipfCDF is the cumulative weight of ranks 1..n under Zipf(s).
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	return cdf
}

// newIngestSource returns a generator of ingest payloads in event-time
// order.
func newIngestSource(w Workload, world World, seed uint64) (func() behavior.Log, error) {
	switch w.Source {
	case "replay":
		if len(world.Logs) == 0 {
			return nil, fmt.Errorf("generate %s: empty history", w.Name)
		}
		logs := append([]behavior.Log(nil), world.Logs...)
		sort.SliceStable(logs, func(i, j int) bool { return logs[i].Time.Before(logs[j].Time) })
		first, last := logs[0].Time, logs[len(logs)-1].Time
		// Each pass over the history lands one period after the last, so
		// the replay never travels back in event time.
		period := last.Sub(first) + time.Hour
		shift := world.End.Sub(first) + time.Hour
		// Every seed replays from the start of the history, so seeds vary
		// the interleaving and the audit targets, not the churn itself.
		i, pass := 0, 0
		return func() behavior.Log {
			l := logs[i]
			l.Time = l.Time.Add(shift + time.Duration(pass)*period)
			if i++; i == len(logs) {
				i, pass = 0, pass+1
			}
			return l
		}, nil
	case "stream":
		cfg := datagen.DefaultStreamConfig(w.StreamUsers)
		cfg.Seed = seed
		cfg.Start = world.End.Add(time.Hour)
		s := datagen.NewStream(cfg)
		var lastT time.Time
		return func() behavior.Log {
			l, ok := s.Next()
			if !ok {
				// Exhausted: restart one stream span later.
				cfg.Start = lastT.Add(time.Hour)
				s = datagen.NewStream(cfg)
				l, _ = s.Next()
			}
			lastT = l.Time
			return l
		}, nil
	}
	return nil, fmt.Errorf("generate %s: unknown ingest source %q", w.Name, w.Source)
}
