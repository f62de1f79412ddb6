package persist

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"testing"

	"turbo/internal/gnn"
)

// f32EraBlob is the artifact payload layout that carried a
// single-precision copy of every weight (WeightsF32) next to the float64
// state. Gob sends every float width as the same wire type, so the copy
// decodes into float64 here.
type f32EraBlob struct {
	Kind       string
	WeightsF32 []float64
}

// TestModelStoreLoadsF32EraArtifact pins backward compatibility with
// artifacts written while the payload carried WeightsF32: the golden
// artifact under testdata/legacy-f32 (a seed-11 HAG, InDim 4, two edge
// types, hidden [6 4], attention hidden 3, every weight shifted off its
// seeded init by 0.25·sin(7·param+index+1) so only the stored weights
// reproduce it) still loads through ModelStore, and its scores on
// testBatch are bitwise the float64 scores the saved model produced
// before it was written.
func TestModelStoreLoadsF32EraArtifact(t *testing.T) {
	src := filepath.Join("testdata", "legacy-f32")
	dir := t.TempDir()
	for _, name := range []string{"model-000001.bin", "model-000001.json"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The golden really is of the old layout.
	raw, err := os.ReadFile(filepath.Join(dir, "model-000001.bin"))
	if err != nil {
		t.Fatal(err)
	}
	var old f32EraBlob
	if err := gob.NewDecoder(bytes.NewReader(raw[len(modelMagic)+4:])).Decode(&old); err != nil {
		t.Fatal(err)
	}
	if old.Kind != "hag" || len(old.WeightsF32) == 0 {
		t.Fatalf("golden artifact lacks WeightsF32 (kind %q, %d f32 weights)", old.Kind, len(old.WeightsF32))
	}

	lm, err := newTestStore(t, dir).LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if lm.Manifest.Kind != "hag" || len(lm.NormMean) != 4 || len(lm.NormStd) != 4 {
		t.Fatalf("loaded manifest/extras wrong: kind %q, mean %v, std %v", lm.Manifest.Kind, lm.NormMean, lm.NormStd)
	}

	// Float64 score bits of the saved model on testBatch(t, 2, 4),
	// recorded when the golden artifact was written.
	want := []uint64{
		0x3fe333aec5588e4f, 0x3fe275f39aa968e3, 0x3fe23f634ac8637d,
		0x3fe29c5b9ecb2030, 0x3fe333fcd96158d5, 0x3fe2b7257ac63193,
	}
	b := testBatch(t, 2, 4)
	if got := math.Float64bits(gnn.Score(lm.Model, b)); got != want[0] {
		t.Fatalf("Score bits %#016x, saved model had %#016x", got, want[0])
	}
	scores := gnn.Scores(lm.Model, b)
	if len(scores) != len(want) {
		t.Fatalf("%d scores, want %d", len(scores), len(want))
	}
	for i, s := range scores {
		if got := math.Float64bits(s); got != want[i] {
			t.Fatalf("scores[%d] bits %#016x, saved model had %#016x", i, got, want[i])
		}
	}
}
