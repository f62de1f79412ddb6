package tensor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// bench_test.go holds the kernel benchmarks behind the tuning constants
// in parallel.go and matrix.go, and the GFLOP/s grid scripts/bench.sh
// publishes as BENCH_kernels.json.

func benchMatrix(rows, cols int, seed uint64) *Matrix {
	rng := NewRNG(seed)
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// BenchmarkParallelCrossover measures pool dispatch against inline
// execution across work sizes bracketing parallelThreshold (1<<15).
// The threshold is chosen so the smallest dispatched job still
// amortizes the ~µs submit/wake cost; rows are sized so serial and
// parallel run identical arithmetic.
func BenchmarkParallelCrossover(b *testing.B) {
	for _, size := range []int{1 << 12, 1 << 14, 1 << 15, 1 << 17, 1 << 20} {
		data := make([]float64, size)
		rows := 64
		perRow := size / rows
		work := func(lo, hi int) {
			for r := lo; r < hi; r++ {
				seg := data[r*perRow : (r+1)*perRow]
				for i := range seg {
					seg[i] = seg[i]*1.0000001 + 1e-9
				}
			}
		}
		b.Run(fmt.Sprintf("serial/work=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				work(0, rows)
			}
		})
		b.Run(fmt.Sprintf("pool/work=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parallelRows(rows, work)
			}
		})
	}
}

// BenchmarkFalseSharing pins the cache-line padding of workerStat: a
// packed counter array forces every increment through a shared line,
// the padded layout gives each worker its own. The same pattern
// motivates per-worker accumulator state in the matmul kernels.
func BenchmarkFalseSharing(b *testing.B) {
	const workers = 4
	const incs = 1 << 16
	run := func(b *testing.B, bump func(w int)) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := 0; k < incs; k++ {
						bump(w)
					}
				}(w)
			}
			wg.Wait()
		}
	}
	b.Run("packed", func(b *testing.B) {
		var counters [workers]atomic.Uint64
		run(b, func(w int) { counters[w].Add(1) })
	})
	b.Run("padded", func(b *testing.B) {
		var counters [workers]workerStat
		run(b, func(w int) { counters[w].tasks.Add(1) })
	})
}

// serialNaiveMatMul is the pre-blocking scalar kernel, kept as the
// GFLOP/s baseline row of the kernel grid.
func serialNaiveMatMul(dst, a, b *Matrix) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		clear(drow)
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
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
}

func reportGFLOPS(b *testing.B, m, k, n int) {
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkMatMulKernels is the kernel grid: square sizes × {serial
// naive, blocked serial, blocked+pool}. scripts/bench.sh turns this
// into BENCH_kernels.json.
func BenchmarkMatMulKernels(b *testing.B) {
	for _, n := range []int{64, 256, 512} {
		a := benchMatrix(n, n, uint64(71+n))
		bb := benchMatrix(n, n, uint64(73+n))
		dst := New(n, n)

		b.Run(fmt.Sprintf("n=%d/f64/serial-naive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				serialNaiveMatMul(dst, a, bb)
			}
			reportGFLOPS(b, n, n, n)
		})
		b.Run(fmt.Sprintf("n=%d/f64/blocked-serial", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst.Zero()
				matMulRange(dst, a, bb, 0, n)
			}
			reportGFLOPS(b, n, n, n)
		})
		b.Run(fmt.Sprintf("n=%d/f64/blocked-pool", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, bb)
			}
			reportGFLOPS(b, n, n, n)
		})
	}
}
