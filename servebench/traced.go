package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"turbo/internal/gnn"
)

// runTraced is the per-layer run. After a warm-up it drives the
// workload at the reference rate for seconds/2 untraced and seconds/2
// traced (the tracing overhead is the difference of the two), then
// climbs the workload's rate ladder, checks the answers, and reports
// the ledger. Spans are kept in memory and written at the end.
func runTraced(w Workload, seed uint64, seconds float64, outDir string, prov Provenance) (result, error) {
	half := seconds / 2
	spans := newHandlerSpans(int(w.RefQPS*half) + 1)
	st, boots, err := bootStacks(1, func(s *Stack) { s.Wrap = spans.wrap })
	if err != nil {
		return result{}, err
	}
	defer st.Close()
	rates := []float64{w.RefQPS, w.RefQPS, w.RefQPS}
	secs := []float64{warmSeconds, half, half}
	for _, r := range w.Ladder {
		rates = append(rates, r)
		secs = append(secs, rungSeconds)
	}
	stages, err := plan(w, st, seed, rates, secs)
	if err != nil {
		return result{}, err
	}
	ctx := context.Background()
	plain := NewClient(st, runtime.NumCPU(), false)
	defer plain.Close()
	traced := NewClient(st, runtime.NumCPU(), true)
	defer traced.Close()

	warm := plain.Run(ctx, stages[0], w.RefQPS)
	base := plain.Run(ctx, stages[1], w.RefQPS)
	hits0, miss0 := st.Sys.Features().CacheStats()
	bn0, err := scrapeBN(plain)
	if err != nil {
		return result{}, err
	}
	tr := traced.Run(ctx, stages[2], w.RefQPS)
	hits1, miss1 := st.Sys.Features().CacheStats()
	bn1, err := scrapeBN(plain)
	if err != nil {
		return result{}, err
	}
	logStage("warm", warm)
	logStage("untraced", base)
	logStage("traced", tr)

	maxQPS := 0.0
	if sustained(base) {
		maxQPS = w.RefQPS
		for i, r := range w.Ladder {
			s := plain.Run(ctx, stages[3+i], r)
			logStage(fmt.Sprintf("ladder %.0f", r), s)
			if !sustained(s) {
				break
			}
			maxQPS = r
		}
	}

	// The replay re-times full-path score stages on the quiesced system
	// before the check disturbs the embedding table.
	all := buildSpans(tr, spans)
	all = append(all, replayScores(ctx, st, tr, all)...)
	ledger := Reconcile(all)

	res := result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = countFailed(warm, base, tr)
	chk, cerr := Check(ctx, plain, st, seed, checkUsers)
	res.Correct = cerr == nil && res.Failed == 0
	if cerr != nil {
		fmt.Fprintln(os.Stderr, "servebench: output check failed:", cerr)
	} else {
		fmt.Fprintf(os.Stderr, "servebench: output check passed: %d embed, %d full-path answers\n", chk.Embed, chk.Full)
	}

	m := res.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	setLayerMetrics(put, tr, ledger, all)

	put("max_sustainable_qps", maxQPS, "1/s")
	put("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	put("resilience.shed", float64(countStatus(tr, http.StatusTooManyRequests)), "count")
	put("feature.cache_hit_ratio", ratio(hits1-hits0, hits1-hits0+miss1-miss0), "ratio")
	put("bn.edge_updates", bn1["turbo_bn_edge_updates_total"]-bn0["turbo_bn_edge_updates_total"], "count")
	put("bn.pruned", bn1["turbo_bn_pruned_edges_total"]-bn0["turbo_bn_pruned_edges_total"], "count")
	put("behavior.logs_retained", float64(st.Sys.BNServer().Store().Len()), "count")
	put("eval.assemble_s", st.Times.Assemble.Seconds(), "s")
	put("gnn.train_s", st.Times.Train.Seconds(), "s")
	put("bn.history_s", st.Times.History.Seconds(), "s")
	put("embed.rebuild_ms", float64(st.Times.Embed.Microseconds())/1e3, "ms")
	put("setup.total_s", boots[0].Seconds(), "s")

	nb := len(base.Samples)
	put("runtime.allocs_per_op", float64(base.Mem.Mallocs)/float64(max(nb, 1)), "count")
	put("runtime.bytes_per_op", float64(base.Mem.Bytes)/float64(max(nb, 1)), "B")
	pauses := make([]int64, len(base.Mem.PausesNs))
	for i, p := range base.Mem.PausesNs {
		pauses[i] = int64(p)
	}
	put("runtime.gc_pause_p99_us", us(pct(pauses, 99)), "us")
	put("runtime.gc_cycles", float64(base.Mem.GCs), "count")

	ab, ib := latencies(base)
	at, _ := latencies(tr)
	put("audit_p90_ms", ms(pct(ab, 90)), "ms")
	put("audit_p99_ms", ms(pct(ab, 99)), "ms")
	put("ingest_p90_ms", ms(pct(ib, 90)), "ms")
	put("ingest_p99_ms", ms(pct(ib, 99)), "ms")
	put("trace.overhead_audit_p50_ms", ms(pct(at, 50))-ms(pct(ab, 50)), "ms")
	put("trace.violations", float64(ledger.Violations), "count")

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, seed))
	if err := saveSpans(path, prov, all); err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "servebench: %d spans written to %s\n", len(all), path)
	return res, nil
}

// sustained reports whether a stage met the rung limits: no
// failed op, intended-start p99 within the limit, at least 90% of the
// offered rate achieved, and no growing generator backlog (the median
// send lag of the last quarter of requests stays under half the limit).
func sustained(s Stage) bool {
	if _, f := countFailed(s); f > 0 || len(s.Samples) == 0 {
		return false
	}
	all := make([]int64, len(s.Samples))
	for i := range s.Samples {
		all[i] = s.Samples[i].Done - s.Samples[i].Intended
	}
	if ms(pct(all, 99)) > p99LimitMs {
		return false
	}
	offered := float64(len(s.Samples)) / s.QPS
	if s.Wall.Seconds() > offered/0.9 {
		return false
	}
	tail := s.Samples[len(s.Samples)*3/4:]
	lag := make([]int64, len(tail))
	for i := range tail {
		lag[i] = tail[i].Sent - tail[i].Intended
	}
	return ms(pct(lag, 50)) <= p99LimitMs/2
}

// buildSpans turns the traced stage's samples and handler stamps into
// span trees, one per request.
func buildSpans(s Stage, h *handlerSpans) []Span {
	off := s.Base.Sub(epoch).Nanoseconds()
	var out []Span
	for j := range s.Samples {
		hs, he := h.start[j].Load(), h.end[j].Load()
		if hs != 0 {
			hs, he = hs-off, he-off
		}
		out = append(out, requestSpans(j, s.Samples[j], hs, he)...)
	}
	req := len(s.Samples)
	for _, t := range s.Ticks {
		name := "bn.advance"
		if t.Kind == OpRefresh {
			name = "embed.refresh"
		}
		out = append(out, Span{Req: req, Name: name, Start: t.Start, End: t.Start + t.Elapsed.Nanoseconds()})
		req++
	}
	return out
}

// replayScores re-times the score stage of every full-path audit: a fresh batch's first ScoreCtx pays compile plus forward, a
// second ScoreCtx on the compiled batch pays forward alone.
func replayScores(ctx context.Context, st *Stack, s Stage, spans []Span) []Span {
	score := map[int]Span{}
	for _, sp := range spans {
		if sp.Name == "gnn.score" {
			score[sp.Req] = sp
		}
	}
	_, model, _ := st.Sys.PredictionServer().Serving()
	var out []Span
	for j := range s.Samples {
		sp, ok := score[j]
		if !ok {
			continue
		}
		sg, x, err := fullInputs(ctx, st, s.Samples[j].UID)
		if err != nil {
			continue
		}
		t0 := time.Now()
		b := gnn.NewBatch(sg, x)
		_, err1 := gnn.ScoreCtx(ctx, model, b)
		t1 := time.Now()
		_, err2 := gnn.ScoreCtx(ctx, model, b)
		t2 := time.Now()
		b.Release()
		if err1 != nil || err2 != nil {
			continue
		}
		fwd := t2.Sub(t1).Nanoseconds()
		out = append(out, replaySpans(j, sp, t1.Sub(t0).Nanoseconds()-fwd, fwd)...)
	}
	return out
}

// setLayerMetrics derives the per-layer ledger from the traced stage.
func setLayerMetrics(put func(string, float64, string), tr Stage, l Ledger, spans []Span) {
	dur := map[string][]int64{}
	for _, sp := range spans {
		dur[sp.Name] = append(dur[sp.Name], sp.Dur())
	}
	// server.http split by op kind.
	var httpAudit, httpIngest []int64
	for _, sp := range spans {
		if sp.Name == "server.http" && sp.Req < len(tr.Samples) {
			if tr.Samples[sp.Req].Kind == OpAudit {
				httpAudit = append(httpAudit, sp.Dur())
			} else {
				httpIngest = append(httpIngest, sp.Dur())
			}
		}
	}
	var lag, total, nodes []int64
	tiers := map[string]int{}
	audits := 0
	for i := range tr.Samples {
		x := &tr.Samples[i]
		lag = append(lag, x.Sent-x.Intended)
		if x.Kind != OpAudit || x.Failed {
			continue
		}
		audits++
		tiers[x.Pred.ServedBy]++
		total = append(total, x.Pred.Total)
		if x.Pred.ServedBy == "hag" {
			nodes = append(nodes, int64(x.Pred.SubgraphNodes))
		}
	}
	put("client.send_lag_ms_p99", ms(pct(lag, 99)), "ms")
	put("client.overhead_us_p50", us(pct(l.Self["client"], 50)), "us")
	put("server.http.audit_us_p50", us(pct(httpAudit, 50)), "us")
	put("server.http.audit_us_p99", us(pct(httpAudit, 99)), "us")
	put("server.http.ingest_us_p50", us(pct(httpIngest, 50)), "us")
	put("server.http.ingest_us_p99", us(pct(httpIngest, 99)), "us")
	put("server.http.self_us_p50", us(pct(selfOf(l, spans, tr, "server.http", OpAudit), 50)), "us")
	put("server.predict.audit_us_p50", us(pct(total, 50)), "us")
	put("server.predict.audit_us_p99", us(pct(total, 99)), "us")
	put("server.predict.self_us_p50", us(pct(l.Self["server.predict"], 50)), "us")
	for _, tier := range []string{"embed", "hag", "fallback", "cache", "prior"} {
		put("server.predict.tier_frac."+tier, ratio(int64(tiers[tier]), int64(audits)), "ratio")
	}
	put("embed.serve_us_p50", us(pct(dur["embed.serve"], 50)), "us")
	put("embed.serve_us_p99", us(pct(dur["embed.serve"], 99)), "us")
	put("embed.hit_ratio", ratio(int64(tiers["embed"]), int64(audits)), "ratio")
	var refresh, rows []int64
	dirtyPeak, jobs := 0, 0
	var advance []int64
	for _, t := range tr.Ticks {
		dirtyPeak = max(dirtyPeak, t.DirtyMax)
		switch t.Kind {
		case OpAdvance:
			advance = append(advance, t.Elapsed.Nanoseconds())
			jobs += t.Jobs
		case OpRefresh:
			if t.Rows > 0 {
				refresh = append(refresh, t.Elapsed.Nanoseconds())
				rows = append(rows, int64(t.Rows))
			}
		}
	}
	put("embed.refresh_ms_p50", ms(pct(refresh, 50)), "ms")
	put("embed.refresh_ms_p99", ms(pct(refresh, 99)), "ms")
	put("embed.refresh_rows_p50", float64(pct(rows, 50)), "count")
	put("embed.dirty_rows_peak", float64(dirtyPeak), "count")
	put("graph.sample_us_p50", us(pct(dur["graph.sample"], 50)), "us")
	put("graph.sample_us_p99", us(pct(dur["graph.sample"], 99)), "us")
	put("graph.subgraph_nodes_p50", float64(pct(nodes, 50)), "count")
	put("feature.fanout_us_p50", us(pct(dur["feature.fanout"], 50)), "us")
	put("feature.fanout_us_p99", us(pct(dur["feature.fanout"], 99)), "us")
	put("gnn.score_us_p50", us(pct(dur["gnn.score"], 50)), "us")
	put("gnn.score_us_p99", us(pct(dur["gnn.score"], 99)), "us")
	put("gnn.score.self_us_p50", us(pct(l.Self["gnn.score"], 50)), "us")
	put("gnn.compile_us_p50", us(pct(dur["gnn.compile"], 50)), "us")
	put("hag.forward_us_p50", us(pct(dur["hag.forward"], 50)), "us")
	put("bn.advance_ms_p50", ms(pct(advance, 50)), "ms")
	put("bn.advance_ms_p99", ms(pct(advance, 99)), "ms")
	put("bn.jobs", float64(jobs), "count")
}

// selfOf collects the self times of the named span over requests of
// one op kind.
func selfOf(l Ledger, spans []Span, tr Stage, name string, kind OpKind) []int64 {
	var out []int64
	i := 0
	for _, sp := range spans {
		if sp.Name != name {
			continue
		}
		if sp.Req < len(tr.Samples) && tr.Samples[sp.Req].Kind == kind {
			out = append(out, l.Self[name][i])
		}
		i++
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func countStatus(s Stage, code int) int {
	n := 0
	for i := range s.Samples {
		if s.Samples[i].Status == code {
			n++
		}
	}
	return n
}

// scrapeBN reads the BN counters from /metrics.
func scrapeBN(c *Client) (map[string]float64, error) {
	resp, err := c.http.Get("http://" + c.st.Addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "turbo_bn_") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return out, nil
}

// saveSpans writes the run's provenance, then its spans, as JSON lines.
func saveSpans(path string, prov Provenance, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("save spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"provenance": prov}); err != nil {
		f.Close()
		return fmt.Errorf("save spans: %w", err)
	}
	if err := writeSpans(bw, spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("save spans: %w", err)
	}
	return f.Close()
}
