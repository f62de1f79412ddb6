package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testWiring trains for a handful of epochs: the tests need a servable
// model, not a good one.
func testWiring() Wiring {
	w := serverDefaults
	w.Epochs = 3
	return w
}

// testStack builds and serves a stack, optionally wrapping its handler.
func testStack(t *testing.T, wrap func(http.Handler) http.Handler) *Stack {
	t.Helper()
	st, err := Build(testWiring())
	if err != nil {
		t.Fatal(err)
	}
	st.Wrap = wrap
	if err := st.Serve(testWiring()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	return st
}

func worldOf(st *Stack) World {
	return World{Users: st.Users, Logs: st.World.Data.Logs, End: st.Clock}
}

// TestGenerateDeterministic: the same seed gives an identical op
// sequence on every workload, another seed a different one, and every
// audit targets a registered user.
func TestGenerateDeterministic(t *testing.T) {
	st, err := Build(testWiring())
	if err != nil {
		t.Fatal(err)
	}
	world := worldOf(st)
	registered := map[int64]bool{}
	for _, u := range world.Users {
		registered[u] = true
	}
	for _, w := range workloads {
		a, err := Generate(w, world, 7, 3000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(w, world, 7, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 gave two different sequences", w.Name)
		}
		c, err := Generate(w, world, 8, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same sequence", w.Name)
		}
		var ingests, advances int
		for _, op := range a {
			switch op.Kind {
			case OpAudit:
				if !registered[op.UID] {
					t.Fatalf("%s: audit of unregistered uid %d", w.Name, op.UID)
				}
			case OpIngest:
				ingests++
			case OpAdvance:
				advances++
				if !op.At.After(world.End) {
					t.Fatalf("%s: Advance to %v does not move the clock past %v", w.Name, op.At, world.End)
				}
			}
		}
		if ingests == 0 || (w.AdvanceEvery > 0) != (advances > 0) {
			t.Fatalf("%s: %d ingests, %d advances", w.Name, ingests, advances)
		}
	}
}

// TestChurnReplayTierCounts: a single-worker replay of churn, on two
// freshly built stacks, serves every audit from the same tiers.
func TestChurnReplayTierCounts(t *testing.T) {
	w, err := findWorkload("churn")
	if err != nil {
		t.Fatal(err)
	}
	replay := func() (map[string]int, int) {
		st := testStack(t, nil)
		ops, err := Generate(w, worldOf(st), 3, 2000)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(st, 1, false)
		defer c.Close()
		s := c.Run(context.Background(), ops, 0)
		tiers := map[string]int{}
		for i := range s.Samples {
			if s.Samples[i].Failed {
				t.Fatalf("op %d (%v uid %d) failed with status %d", i, s.Samples[i].Kind, s.Samples[i].UID, s.Samples[i].Status)
			}
			if s.Samples[i].Kind == OpAudit {
				tiers[s.Samples[i].Pred.ServedBy]++
			}
		}
		rows := 0
		for _, tk := range s.Ticks {
			rows += tk.Rows
		}
		return tiers, rows
	}
	a, rowsA := replay()
	b, rowsB := replay()
	if !reflect.DeepEqual(a, b) || rowsA != rowsB {
		t.Fatalf("replays differ: tiers %v vs %v, refreshed rows %d vs %d", a, b, rowsA, rowsB)
	}
	if a["hag"] == 0 || a["embed"] == 0 || rowsA == 0 {
		t.Fatalf("churn replay exercised no demotion or refresh: tiers %v, refreshed rows %d", a, rowsA)
	}
}

// TestReconcile: self time is duration minus children; a child outside
// its parent is a violation and is still subtracted in full, so the
// residue goes negative instead of being clamped; replayed children are
// exempt from containment but not from the residue.
func TestReconcile(t *testing.T) {
	spans := []Span{
		{Req: 1, Name: "client", Start: 0, End: 100},
		{Req: 1, Name: "server.http", Parent: "client", Start: 10, End: 90},
		{Req: 1, Name: "server.predict", Parent: "server.http", Start: 10, End: 70},
		{Req: 2, Name: "client", Start: 0, End: 50},
		{Req: 2, Name: "server.http", Parent: "client", Start: 20, End: 80},
		{Req: 3, Name: "gnn.score", Start: 0, End: 30},
		{Req: 3, Name: "gnn.compile", Parent: "gnn.score", Start: 0, End: 10, Replayed: true},
		{Req: 3, Name: "hag.forward", Parent: "gnn.score", Start: 10, End: 40, Replayed: true},
	}
	l := Reconcile(spans)
	if l.Violations != 1 {
		t.Fatalf("violations %d, want 1 (req 2's server.http ends after its client span)", l.Violations)
	}
	want := map[string][]int64{
		"client":         {20, -10},
		"server.http":    {20, 60},
		"server.predict": {60},
		"gnn.score":      {-10},
		"gnn.compile":    {10},
		"hag.forward":    {30},
	}
	if !reflect.DeepEqual(l.Self, want) {
		t.Fatalf("self times %v, want %v", l.Self, want)
	}

	// Spans built from a sample nest inside each other by construction.
	s := Sample{Kind: OpAudit, Intended: 0, Sent: 5, Done: 400, Pred: predictBody{
		ServedBy: "hag", Sample: 40, Feature: 30, Predict: 100, Total: 200}}
	l = Reconcile(requestSpans(0, s, 20, 300))
	if l.Violations != 0 {
		t.Fatalf("request spans violate containment: %+v", l)
	}
	if got := l.Self["server.predict"]; !reflect.DeepEqual(got, []int64{30}) {
		t.Fatalf("server.predict residue %v, want [30]", got)
	}
}

// corrupt returns a handler wrapper that rewrites the probability of
// /predict answers served by tier with f.
func corrupt(tier string, f func(float64) float64) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := bytes.TrimSpace(rec.Body.Bytes())
			if strings.HasPrefix(r.URL.Path, "/predict") && rec.Code == http.StatusOK {
				var m map[string]any
				if err := json.Unmarshal(body, &m); err == nil && m["served_by"] == tier {
					m["probability"] = f(m["probability"].(float64))
					body, _ = json.Marshal(m)
				}
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
		})
	}
}

// TestCheck: the output check passes on an honest stack and fails when
// an answer is corrupted past its tier's tolerance — by 1e-6 on the
// embed tier, by one ulp on the full path.
func TestCheck(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		wrap func(http.Handler) http.Handler
		ok   bool
	}{
		{"honest", nil, true},
		{"embed+1e-6", corrupt("embed", func(p float64) float64 { return p + 1e-6 }), false},
		{"hag+1ulp", corrupt("hag", func(p float64) float64 { return math.Nextafter(p, 2) }), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := testStack(t, tc.wrap)
			c := NewClient(st, 1, false)
			defer c.Close()
			rep, err := Check(ctx, c, st, 1, 16)
			if tc.ok && (err != nil || rep.Embed == 0 || rep.Full == 0) {
				t.Fatalf("honest stack: %+v, %v", rep, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("corrupted answers passed the check: %+v", rep)
			}
		})
	}
}

// TestRunFailsUnknownUser: the generator counts a 404 as a failure. The
// world's uids are 0..Users-1, so uid Users is never registered.
func TestRunFailsUnknownUser(t *testing.T) {
	st := testStack(t, nil)
	c := NewClient(st, 1, false)
	defer c.Close()
	s := c.Run(context.Background(), []Op{{Kind: OpAudit, UID: st.Users[0]}, {Kind: OpAudit, UID: int64(len(st.Users))}}, 1000)
	if s.Samples[0].Failed || !s.Samples[1].Failed || s.Samples[1].Status != http.StatusNotFound {
		t.Fatalf("samples %+v", s.Samples)
	}
	if s.Samples[1].Intended != int64(time.Millisecond) {
		t.Fatalf("second op due at %dns, want 1ms at 1000 qps", s.Samples[1].Intended)
	}
}
