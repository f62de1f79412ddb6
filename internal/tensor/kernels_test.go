package tensor

import "testing"

// naiveMatMul is the historical scalar triple loop, kept verbatim as the
// bitwise reference for the blocked kernel.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := out.Data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return out
}

func randMat(rng *RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	// sprinkle exact zeros so the skip-zero branch is exercised
	for i := 0; i < len(m.Data); i += 17 {
		m.Data[i] = 0
	}
	return m
}

// TestMatMulBlockedBitwiseEqualsNaive is the kernel-equivalence smoke
// pinned by scripts/ci.sh: the blocked (and SIMD, when available)
// float64 kernel must be bitwise-identical to the naive scalar loop for
// shapes on both sides of the panel and parallel thresholds.
func TestMatMulBlockedBitwiseEqualsNaive(t *testing.T) {
	rng := NewRNG(7)
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {64, 16, 32}, {64, 33, 9},
		{128, 200, 300}, // kd*n exceeds one panel → blocked path
		{257, 300, 129}, // blocked + parallel path
	}
	for _, s := range shapes {
		a := randMat(rng, s[0], s[1])
		b := randMat(rng, s[1], s[2])
		got := a.MatMul(b)
		want := naiveMatMul(a, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shape %v: element %d differs: %v vs %v", s, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulPartitionIndependence pins the contract the sweep engine
// relies on: any contiguous row partition of MatMulRangeInto produces
// output bitwise equal to a single MatMulInto call.
func TestMatMulPartitionIndependence(t *testing.T) {
	rng := NewRNG(11)
	a := randMat(rng, 150, 80)
	b := randMat(rng, 80, 90)
	whole := New(150, 90)
	MatMulInto(whole, a, b)
	parts := New(150, 90)
	for lo := 0; lo < 150; lo += 37 {
		hi := lo + 37
		if hi > 150 {
			hi = 150
		}
		MatMulRangeInto(parts, a, b, lo, hi)
	}
	for i := range whole.Data {
		if whole.Data[i] != parts.Data[i] {
			t.Fatalf("element %d differs across partitions", i)
		}
	}
}

func TestDaxpyBitwiseEqualsScalar(t *testing.T) {
	rng := NewRNG(3)
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 64, 100} {
		dst := make([]float64, n)
		ref := make([]float64, n)
		src := make([]float64, n)
		for i := range src {
			dst[i] = rng.NormFloat64()
			ref[i] = dst[i]
			src[i] = rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		daxpy(dst, src, alpha)
		for i := range ref {
			ref[i] += alpha * src[i]
		}
		for i := range ref {
			if dst[i] != ref[i] {
				t.Fatalf("n=%d: element %d differs: %v vs %v", n, i, dst[i], ref[i])
			}
		}
	}
}

func TestParallelRowsCoversRange(t *testing.T) {
	hits := make([]int32, 500)
	ParallelRows(500, 1<<20, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("row %d covered %d times", i, h)
		}
	}
}
