package bn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"turbo/internal/behavior"
	"turbo/internal/datagen"
	"turbo/internal/graph"
)

// tinyHistoryEdgeHash pins the BN that boot-time Advance builds over the
// tiny world: the SHA-256 of the sorted edge list (type, u, v, weight
// bits, expiry). Any change to the store's per-key log order or to the
// builder's accumulation order moves it: handing one epoch's keys to the
// window job in another order sums some edges' contributions in another
// order (on this world, GPS100 edge 84–87 would weigh one ulp less).
const tinyHistoryEdgeHash = "64d5bc824db02e44ddaefad031e11ca2df61c95998b4fd097d13b6cfb47933fa"

// buildHistory runs boot-time window jobs over the whole world into a
// fresh graph (Advance to End+48h, as the server and servebench do).
func buildHistory(tb testing.TB, d *datagen.Dataset, store *behavior.Store) *graph.Graph {
	g := graph.New(behavior.NumTypes)
	b, err := NewBuilder(Config{}, store, g, d.Start)
	if err != nil {
		tb.Fatal(err)
	}
	b.Advance(d.End.Add(48 * time.Hour))
	return g
}

func edgeHash(g *graph.Graph) string {
	h := sha256.New()
	var buf [8 * 5]byte
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.Type))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.U))
		binary.LittleEndian.PutUint64(buf[16:], uint64(e.V))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(e.Weight))
		binary.LittleEndian.PutUint64(buf[32:], uint64(e.ExpireAt.UnixNano()))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAdvanceHistoryEdgesPinned: the BN built from the tiny world's
// history is bitwise reproducible within a process and across builds.
func TestAdvanceHistoryEdgesPinned(t *testing.T) {
	d := datagen.Generate(datagen.Tiny())
	first := edgeHash(buildHistory(t, d, d.Store()))
	if second := edgeHash(buildHistory(t, d, d.Store())); second != first {
		t.Fatalf("two builds in one process differ: %s vs %s", first, second)
	}
	if first != tinyHistoryEdgeHash {
		t.Fatalf("edge hash %s, pinned %s", first, tinyHistoryEdgeHash)
	}
}

// BenchmarkBuilderAdvanceHistory measures boot-time Advance over the
// tiny world: every window job of the history on a fresh graph.
func BenchmarkBuilderAdvanceHistory(b *testing.B) {
	d := datagen.Generate(datagen.Tiny())
	store := d.Store()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildHistory(b, d, store)
	}
}
