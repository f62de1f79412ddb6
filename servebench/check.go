package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/gnn"
	"turbo/internal/graph"
	"turbo/internal/tensor"
)

// Tolerances the output check holds each tier to: the embed tier's
// parity contract against the full-graph sweep (internal/embed parity
// tests), the full path bitwise against a recomputation through
// gnn.Score, and the single-target fast path against the tape forward
// (internal/gnn TestInferTargetMatchesTape).
const (
	embedTol = 1e-9
	tapeTol  = 1e-12
)

// CheckReport says how many answers were compared on each tier.
type CheckReport struct {
	Embed, Full int
}

// Check scores a seeded sample of registered users through /predict on
// the quiesced system and through the reference path on the same
// snapshot. Answers served by the embed tier are compared with the
// full-graph scores over the table's frozen features; then every row is
// marked dirty so the same users take the full path, whose answers must
// equal a recomputation bitwise. Any non-200 answer, degraded tier or
// answer outside tolerance fails the check. The tier is refreshed
// again before Check returns.
func Check(ctx context.Context, c *Client, st *Stack, seed uint64, n int) (CheckReport, error) {
	var rep CheckReport
	users := sampleUsers(st.Users, seed, n)
	embedRef, err := embedReference(st)
	if err != nil {
		return rep, err
	}
	for _, u := range users {
		p, err := c.predict(ctx, u)
		if err != nil {
			return rep, err
		}
		switch p.ServedBy {
		case "embed":
			want, ok := embedRef[u]
			if !ok {
				return rep, fmt.Errorf("check: uid %d served by embed but not in the table", u)
			}
			if d := math.Abs(p.Probability - want); !(d <= embedTol) {
				return rep, fmt.Errorf("check: uid %d embed answer %v, full-graph reference %v (|diff| %g > %g)", u, p.Probability, want, d, embedTol)
			}
			rep.Embed++
		case "hag":
			if err := checkFull(ctx, st, u, p.Probability); err != nil {
				return rep, err
			}
			rep.Full++
		default:
			return rep, fmt.Errorf("check: uid %d served by %q on a healthy quiesced system", u, p.ServedBy)
		}
	}
	st.Embed.Store().Table().MarkAll()
	defer st.Embed.RefreshOnce()
	for _, u := range users {
		p, err := c.predict(ctx, u)
		if err != nil {
			return rep, err
		}
		if p.ServedBy != "hag" {
			return rep, fmt.Errorf("check: uid %d served by %q with every row dirty, want hag", u, p.ServedBy)
		}
		if err := checkFull(ctx, st, u, p.Probability); err != nil {
			return rep, err
		}
		rep.Full++
	}
	return rep, nil
}

// sampleUsers draws min(n, len(users)) distinct users under seed.
func sampleUsers(users []int64, seed uint64, n int) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0xc4ec_0001))
	perm := rng.Perm(len(users))
	if n > len(perm) {
		n = len(perm)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = users[perm[i]]
	}
	return out
}

// predict audits u over HTTP and requires a 200 with a serving tier.
func (c *Client) predict(ctx context.Context, u int64) (predictBody, error) {
	var p predictBody
	r, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+c.st.Addr+"/predict?uid="+strconv.FormatInt(u, 10), nil)
	if err != nil {
		return p, err
	}
	resp, err := c.http.Do(r)
	if err != nil {
		return p, fmt.Errorf("check: audit uid %d: %w", u, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return p, fmt.Errorf("check: audit uid %d: %w", u, err)
	}
	if resp.StatusCode != http.StatusOK {
		return p, fmt.Errorf("check: audit uid %d: status %d", u, resp.StatusCode)
	}
	if err := json.Unmarshal(body, &p); err != nil || p.ServedBy == "" {
		return p, fmt.Errorf("check: audit uid %d: bad answer %q", u, body)
	}
	return p, nil
}

// embedReference scores every row of the embedding table on the
// current snapshot through the full-graph path, over the table's own
// universe and frozen features.
func embedReference(st *Stack) (map[int64]float64, error) {
	tab := st.Embed.Store().Table()
	if tab == nil {
		return nil, fmt.Errorf("check: embed tier has no table")
	}
	d := tab.Export()
	if d == nil {
		return nil, fmt.Errorf("check: embed table has unset rows")
	}
	_, model, _ := st.Sys.PredictionServer().Serving()
	x := tensor.New(len(d.IDs), d.XCols)
	copy(x.Data, d.X)
	b := gnn.NewBatch(graph.FullSubgraph(st.Sys.BNServer().Snapshot(), graph.FullOptions{Nodes: d.IDs}), x)
	defer b.Release()
	probs := gnn.Scores(model, b)
	out := make(map[int64]float64, len(d.IDs))
	for i, id := range d.IDs {
		out[int64(id)] = probs[i]
	}
	return out, nil
}

// checkFull recomputes u's full-path score from the published snapshot:
// sample, fetch and normalize features, compile, score. got must equal
// gnn.Score bitwise and the tape forward within tapeTol.
func checkFull(ctx context.Context, st *Stack, u int64, got float64) error {
	sg, x, err := fullInputs(ctx, st, u)
	if err != nil {
		return err
	}
	b := gnn.NewBatch(sg, x)
	defer b.Release()
	_, model, _ := st.Sys.PredictionServer().Serving()
	if want := gnn.Score(model, b); math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("check: uid %d full-path answer %v, recomputed %v (not bitwise)", u, got, want)
	}
	if tape := gnn.TapeScore(model, b); !(math.Abs(got-tape) <= tapeTol) {
		return fmt.Errorf("check: uid %d full-path answer %v, tape reference %v (|diff| > %g)", u, got, tape, tapeTol)
	}
	return nil
}

// fullInputs samples u's computation subgraph from the published
// snapshot and fetches its normalized feature rows, as the full path
// does before it compiles the batch.
func fullInputs(ctx context.Context, st *Stack, u int64) (*graph.Subgraph, *tensor.Matrix, error) {
	feats, _, norm := st.Sys.PredictionServer().Serving()
	sg := st.Sys.BNServer().Sample(behavior.UserID(u))
	var x *tensor.Matrix
	for i, node := range sg.Nodes {
		vec, err := feats.VectorCtx(ctx, behavior.UserID(node), time.Now())
		if err != nil {
			return nil, nil, fmt.Errorf("check: features of node %d: %w", node, err)
		}
		if norm != nil {
			vec = norm(vec)
		}
		if x == nil {
			x = tensor.New(sg.NumNodes(), len(vec))
		}
		copy(x.Row(i), vec)
	}
	return sg, x, nil
}
