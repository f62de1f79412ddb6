//go:build !amd64

package tensor

// Stub body for platforms without the AVX2 kernel. simdEnabled stays
// false there, so it cannot be reached.

func daxpyAVX2(dst, src []float64, alpha float64) { panic("tensor: simd kernel on non-amd64") }
