package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Span is one timed interval of a request, in nanoseconds since the
// stage base. Spans of one request share Req; Parent names the span
// that caused this one ("" for the root).
//
// Only client and server.http carry their own timestamps. The spans
// under server.predict come from the durations /predict returns and are
// laid end to end from their parent's start, so their self times are
// exact but their placement inside the parent is not. Replayed spans
// (gnn.compile, hag.forward) were timed by re-running the stage on the
// quiesced system; they are excluded from the containment check, and
// the residue of their parent may be negative.
type Span struct {
	Req      int    `json:"req"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

// Dur is the span's length.
func (s Span) Dur() int64 { return s.End - s.Start }

// Ledger is the reconciliation of a set of spans: per span name, the
// self time of every instance (its duration minus what its children
// cover), and the number of children found outside their parent.
type Ledger struct {
	Self       map[string][]int64
	Violations int
}

// Reconcile computes self times. A child that starts before or ends
// after its parent is counted as a violation and still subtracted in
// full, so the parent's residue shows the disagreement instead of
// hiding it: residues are never clamped at zero.
func Reconcile(spans []Span) Ledger {
	type key struct {
		req  int
		name string
	}
	byKey := make(map[key]int, len(spans))
	for i, s := range spans {
		byKey[key{s.Req, s.Name}] = i
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.Dur()
	}
	l := Ledger{Self: map[string][]int64{}}
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		p, ok := byKey[key{s.Req, s.Parent}]
		if !ok {
			l.Violations++
			continue
		}
		self[p] -= s.Dur()
		if !s.Replayed && (s.Start < spans[p].Start || s.End > spans[p].End) {
			l.Violations++
		}
	}
	for i, s := range spans {
		l.Self[s.Name] = append(l.Self[s.Name], self[i])
	}
	return l
}

// requestSpans builds the span tree of one request sample. hs and he
// are the handler's start and end (ns since base), or hs == he == 0
// when the wrapper did not see the request.
func requestSpans(req int, s Sample, hs, he int64) []Span {
	out := []Span{
		{Req: req, Name: "client", Start: s.Intended, End: s.Done},
		{Req: req, Name: "client.wait", Parent: "client", Start: s.Intended, End: s.Sent},
	}
	if he <= hs {
		return out
	}
	out = append(out, Span{Req: req, Name: "server.http", Parent: "client", Start: hs, End: he})
	if s.Kind != OpAudit || s.Failed {
		return out
	}
	p := s.Pred
	out = append(out, Span{Req: req, Name: "server.predict", Parent: "server.http", Start: hs, End: hs + p.Total})
	at := hs
	add := func(name string, d int64) {
		out = append(out, Span{Req: req, Name: name, Parent: "server.predict", Start: at, End: at + d})
		at += d
	}
	switch p.ServedBy {
	case "embed":
		add("embed.serve", p.Predict)
	case "hag":
		add("graph.sample", p.Sample)
		add("feature.fanout", p.Feature)
		add("gnn.score", p.Predict)
	}
	return out
}

// replaySpans adds the compile and forward split of a full-path audit's
// score span.
func replaySpans(req int, score Span, compile, forward int64) []Span {
	return []Span{
		{Req: req, Name: "gnn.compile", Parent: "gnn.score", Start: score.Start, End: score.Start + compile, Replayed: true},
		{Req: req, Name: "hag.forward", Parent: "gnn.score", Start: score.Start + compile, End: score.Start + compile + forward, Replayed: true},
	}
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// pct returns the p-th percentile (0..100) of xs by nearest rank, or 0
// for an empty sample. xs is sorted in place.
func pct(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	r := int(p/100*float64(len(xs))+0.999999) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(xs) {
		r = len(xs) - 1
	}
	return xs[r]
}
