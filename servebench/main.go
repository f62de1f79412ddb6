// Command servebench is the serving stack's end-to-end benchmark. It
// builds the stack the way cmd/turbo-server boots it, serves the HTTP
// API on a loopback listener, drives one workload open-loop at a fixed
// rate while owning the BN event clock, checks the answers against the
// reference scoring paths, and prints one JSON result line. From the
// repository root:
//
//	bash servebench/run.sh --workload churn --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer ledger, taken from a traced replay of the same workload,
// and writes its spans under .bench_build/servebench/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// Run shape. Latency metrics are taken at the workload's reference rate
// over --seconds. Set-up is repeated setupRuns times and its median
// reported, so one slow boot does not move setup_s.
const (
	setupRuns   = 3
	warmSeconds = 1.0
	checkUsers  = 48
	rungSeconds = 2.0
)

func main() {
	workload := flag.String("workload", "", "workload name: audit-steady, churn, ingest-flood")
	seed := flag.Uint64("seed", 1, "seed for the op sequence and the output-check sample")
	seconds := flag.Float64("seconds", 10, "measured seconds at the reference rate")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer ledger")
	outDir := flag.String("out", ".bench_build/servebench", "directory for span files (traced run)")
	flag.Parse()

	w, err := findWorkload(*workload)
	if err != nil {
		fail(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0|1"))
	}
	prov := provenance(w, *seed, *seconds)
	if b, err := json.Marshal(map[string]any{"provenance": prov}); err == nil {
		fmt.Println(string(b))
	}

	var res result
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, *seconds)
	} else {
		res, err = runTraced(w, *seed, *seconds, *outDir, prov)
	}
	if err != nil {
		fail(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(2)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bootStacks builds the stack n times and keeps the last; the rest are
// closed. It returns the per-boot set-up times (build plus listen).
func bootStacks(n int, wrap func(*Stack)) (*Stack, []time.Duration, error) {
	var st *Stack
	var times []time.Duration
	for i := 0; i < n; i++ {
		if st != nil {
			if err := st.Close(); err != nil {
				return nil, nil, err
			}
			st = nil
			runtime.GC()
		}
		t := time.Now()
		s, err := Build(serverDefaults)
		if err != nil {
			return nil, nil, err
		}
		if wrap != nil {
			wrap(s)
		}
		if err := s.Serve(serverDefaults); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t))
		st = s
	}
	return st, times, nil
}

// plan generates the op sequence for consecutive stages of the given
// rates and lengths and splits it per stage.
func plan(w Workload, st *Stack, seed uint64, rates, secs []float64) ([][]Op, error) {
	counts := make([]int, len(rates))
	total := 0
	for i := range rates {
		counts[i] = int(rates[i] * secs[i])
		total += counts[i]
	}
	ops, err := Generate(w, World{Users: st.Users, Logs: st.World.Data.Logs, End: st.Clock}, seed, total)
	if err != nil {
		return nil, err
	}
	out := make([][]Op, len(counts))
	i := 0
	for s, n := range counts {
		start := i
		for seen := 0; i < len(ops) && (seen < n || (ops[i].Kind != OpAudit && ops[i].Kind != OpIngest)); i++ {
			if ops[i].Kind == OpAudit || ops[i].Kind == OpIngest {
				seen++
			}
		}
		out[s] = ops[start:i]
	}
	return out, nil
}

// retainedHeapMB forces a GC and returns the live heap in MiB. Taken
// right after the load phase it is the peak of the retained state: a
// run only adds logs, edges and rows, and a sampled peak would instead
// depend on how much garbage the last concurrent mark happened to see.
func retainedHeapMB() float64 {
	// Two cycles: the first only moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runEndToEnd is the untraced run: boot setupRuns times, warm up, drive
// the workload at its reference rate for seconds, check the answers.
func runEndToEnd(w Workload, seed uint64, seconds float64) (result, error) {
	st, boots, err := bootStacks(setupRuns, nil)
	if err != nil {
		return result{}, err
	}
	defer st.Close()
	stages, err := plan(w, st, seed, []float64{w.RefQPS, w.RefQPS}, []float64{warmSeconds, seconds})
	if err != nil {
		return result{}, err
	}
	c := NewClient(st, runtime.NumCPU(), false)
	defer c.Close()
	ctx := context.Background()
	warm := c.Run(ctx, stages[0], w.RefQPS)
	ref := c.Run(ctx, stages[1], w.RefQPS)
	heapMB := retainedHeapMB()
	logStage("warm", warm)
	logStage("reference", ref)

	res := result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = countFailed(warm, ref)
	chk, cerr := Check(ctx, c, st, seed, checkUsers)
	res.Correct = cerr == nil && res.Failed == 0
	if cerr != nil {
		fmt.Fprintln(os.Stderr, "servebench: output check failed:", cerr)
	} else {
		fmt.Fprintf(os.Stderr, "servebench: output check passed: %d embed, %d full-path answers\n", chk.Embed, chk.Full)
	}

	audit, ingest := latencies(ref)
	res.Metrics["setup_s"] = metric{medianDur(boots).Seconds(), "s"}
	res.Metrics["audit_p50_ms"] = metric{ms(pct(audit, 50)), "ms"}
	res.Metrics["ingest_p50_ms"] = metric{ms(pct(ingest, 50)), "ms"}
	res.Metrics["heap_peak_mb"] = metric{heapMB, "MiB"}
	return res, nil
}

// countFailed totals request ops and failures over stages.
func countFailed(stages ...Stage) (attempted, failed int) {
	for _, s := range stages {
		for i := range s.Samples {
			attempted++
			if s.Samples[i].Failed {
				failed++
			}
		}
	}
	return attempted, failed
}

// latencies returns intended-start latencies (ns) of audits and ingests.
func latencies(s Stage) (audit, ingest []int64) {
	for i := range s.Samples {
		x := &s.Samples[i]
		d := x.Done - x.Intended
		if x.Kind == OpAudit {
			audit = append(audit, d)
		} else {
			ingest = append(ingest, d)
		}
	}
	return audit, ingest
}

// logStage prints a stage summary to standard error.
func logStage(name string, s Stage) {
	tiers := map[string]int{}
	for i := range s.Samples {
		if s.Samples[i].Kind == OpAudit {
			tiers[s.Samples[i].Pred.ServedBy]++
		}
	}
	// Window jobs per quarter of the stage show whether BN construction
	// kept running to the end.
	var jobs [4]int
	for _, t := range s.Ticks {
		if s.Wall > 0 {
			jobs[min(3, int(4*t.Start/int64(s.Wall)))] += t.Jobs
		}
	}
	a, f := countFailed(s)
	fmt.Fprintf(os.Stderr, "servebench: %s: %.0f qps, %d ops (%d failed) in %v, tiers %v, %d ticks, window jobs by quarter %v\n",
		name, s.QPS, a, f, s.Wall.Round(time.Millisecond), tiers, len(s.Ticks), jobs)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
