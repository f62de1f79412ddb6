package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"turbo/internal/baselines"
	"turbo/internal/core"
	"turbo/internal/datagen"
	"turbo/internal/eval"
	"turbo/internal/resilience"
	"turbo/internal/server"
	"turbo/internal/tensor"
)

// Wiring is the prediction-server and HTTP configuration the harness
// installs. Every value mirrors a cmd/turbo-server flag default; the
// benchmark records it with each result so a change to a default shows
// up as a change of wiring, not as an unexplained shift in latency.
type Wiring struct {
	Threshold         float64       `json:"threshold"`
	Epochs            int           `json:"epochs"`
	MaxInFlight       int           `json:"max_inflight"`
	BreakerThreshold  int           `json:"breaker_threshold"`
	BreakerCoolDown   time.Duration `json:"breaker_cooldown_ns"`
	RetryAttempts     int           `json:"retry_attempts"`
	RetryBaseDelay    time.Duration `json:"retry_base_delay_ns"`
	RetrySeed         uint64        `json:"retry_seed"`
	FanoutWorkers     int           `json:"fanout_workers"`
	SampleTimeout     time.Duration `json:"sample_timeout_ns"`
	FeatureTimeout    time.Duration `json:"feature_timeout_ns"`
	TotalTimeout      time.Duration `json:"total_timeout_ns"`
	MaxBody           int64         `json:"http_max_body"`
	ReadHeaderTimeout time.Duration `json:"http_read_header_timeout_ns"`
	ReadTimeout       time.Duration `json:"http_read_timeout_ns"`
	WriteTimeout      time.Duration `json:"http_write_timeout_ns"`
	IdleTimeout       time.Duration `json:"http_idle_timeout_ns"`
	TraceRingSize     int           `json:"telemetry_trace_ring"`
	SlowThreshold     time.Duration `json:"telemetry_slow_threshold_ns"`
}

// serverDefaults is turbo-server's default posture with the embedding
// tier on, with one exception: HAG trains for trainEpochs instead of
// eval.DefaultHyper's 120. The served model has the same shape, so only
// set-up time scales, and three boots per run stay affordable. The
// scheduler and refresh periods are not listed: the harness owns the
// event clock and ticks Advance and RefreshOnce itself.
var serverDefaults = Wiring{
	Threshold:         0.85,
	Epochs:            trainEpochs,
	MaxInFlight:       256,
	BreakerThreshold:  5,
	BreakerCoolDown:   10 * time.Second,
	RetryAttempts:     2,
	RetryBaseDelay:    5 * time.Millisecond,
	RetrySeed:         1,
	FanoutWorkers:     0,
	SampleTimeout:     500 * time.Millisecond,
	FeatureTimeout:    time.Second,
	TotalTimeout:      2 * time.Second,
	MaxBody:           1 << 20,
	ReadHeaderTimeout: 5 * time.Second,
	ReadTimeout:       30 * time.Second,
	WriteTimeout:      10 * time.Minute,
	IdleTimeout:       2 * time.Minute,
	TraceRingSize:     256,
	SlowThreshold:     500 * time.Millisecond,
}

const trainEpochs = 40

// SetupTimes splits one set-up into the phases that can move setup_s.
type SetupTimes struct {
	Total    time.Duration // start until the listener accepts audits
	Assemble time.Duration // world generation, BN build, feature rows
	Train    time.Duration // HAG plus the LR fallback
	History  time.Duration // history ingest, registration, first Advance
	Embed    time.Duration // embedding-table build
}

// Stack is one running serving stack: the system, its embed engine,
// the assembled world it was trained on, and the loopback HTTP server.
type Stack struct {
	Sys    *core.System
	Embed  *server.EmbedEngine
	World  *eval.Assembled
	Users  []int64 // registered uids, ascending
	Clock  time.Time
	Times  SetupTimes
	Addr   string
	srv    *http.Server
	served chan error
	// Wrap, when set before Serve, wraps the API handler (the traced
	// run's server.http span).
	Wrap func(http.Handler) http.Handler
}

// Build assembles the tiny-preset world, trains the models and loads
// the history, mirroring cmd/turbo-server's boot with the given wiring. The stack is
// ready to Serve.
func Build(w Wiring) (*Stack, error) {
	start := time.Now()
	a := eval.Assemble(datagen.Tiny(), eval.AssembleOptions{})
	st := &Stack{World: a}
	st.Times.Assemble = time.Since(start)

	t := time.Now()
	h := eval.DefaultHyper()
	h.Epochs = w.Epochs
	model, _ := eval.TrainHAG(a, eval.HAGFull, h, 1)
	fbX := tensor.New(len(a.TrainIdx), a.X.Cols)
	fbY := make([]float64, len(a.TrainIdx))
	for i, idx := range a.TrainIdx {
		copy(fbX.Row(i), a.X.Row(idx))
		fbY[i] = a.Labels[idx]
	}
	fallback := &baselines.LogisticRegression{Balance: true}
	fallback.Fit(fbX, fbY)
	st.Times.Train = time.Since(t)

	t = time.Now()
	slow := log.New(os.Stderr, "servebench: ", 0)
	sys, err := core.New(core.Config{
		Threshold: w.Threshold,
		Telemetry: server.TelemetryOptions{
			TraceRingSize: w.TraceRingSize,
			SlowThreshold: w.SlowThreshold,
			Logger:        slow,
		},
	}, a.Data.Start)
	if err != nil {
		return nil, err
	}
	sys.SetModel(model, a.Norm.Apply)
	sys.IngestBatch(a.Data.Logs)
	for i := range a.Data.Users {
		u := &a.Data.Users[i]
		if err := sys.RegisterApplication(u.ID, u.Features()); err != nil {
			return nil, err
		}
		st.Users = append(st.Users, int64(u.ID))
	}
	st.Clock = a.Data.End.Add(48 * time.Hour)
	sys.Advance(st.Clock)
	st.Times.History = time.Since(t)

	pred := sys.PredictionServer()
	tel := sys.Telemetry()
	pred.Fallback = fallback
	pred.Admission = resilience.NewAdmission(w.MaxInFlight)
	pred.Breaker = resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: w.BreakerThreshold,
		CoolDown:         w.BreakerCoolDown,
		OnStateChange:    tel.BreakerHook(),
	})
	pred.Retry = resilience.RetryConfig{Attempts: w.RetryAttempts, BaseDelay: w.RetryBaseDelay, Seed: w.RetrySeed}
	pred.FanoutWorkers = w.FanoutWorkers
	pred.Deadlines = server.StageDeadlines{Sample: w.SampleTimeout, Feature: w.FeatureTimeout, Total: w.TotalTimeout}

	t = time.Now()
	eng, err := sys.EnableEmbedTier()
	if err != nil {
		return nil, err
	}
	rep, err := eng.RebuildOnce(context.Background())
	if err != nil {
		return nil, fmt.Errorf("embed rebuild: %w", err)
	}
	if !rep.Servable || rep.Rows != len(st.Users) {
		return nil, fmt.Errorf("embed rebuild: %d of %d rows, servable=%v", rep.Rows, len(st.Users), rep.Servable)
	}
	st.Embed = eng
	st.Times.Embed = time.Since(t)
	st.Sys = sys
	st.Times.Total = time.Since(start)
	return st, nil
}

// Serve starts the HTTP API on a loopback listener; setup time counts
// until it accepts connections.
func (st *Stack) Serve(w Wiring) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	api := st.Sys.API()
	api.ErrorLog = log.New(os.Stderr, "servebench: api: ", 0)
	api.MaxBodyBytes = w.MaxBody
	api.SetReady(true)
	var h http.Handler = api
	if st.Wrap != nil {
		h = st.Wrap(api)
	}
	st.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: w.ReadHeaderTimeout,
		ReadTimeout:       w.ReadTimeout,
		WriteTimeout:      w.WriteTimeout,
		IdleTimeout:       w.IdleTimeout,
		ErrorLog:          log.New(io.Discard, "", 0),
	}
	st.Addr = ln.Addr().String()
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	return nil
}

// Close shuts the HTTP server down and waits for its goroutine.
func (st *Stack) Close() error {
	if st.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.served; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	st.srv = nil
	return err
}
