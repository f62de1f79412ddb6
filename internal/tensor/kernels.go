package tensor

// Low-level kernel dispatch. daxpy has a portable Go implementation
// and, on amd64 with AVX2, a vector one; simdEnabled is resolved once
// at init from CPUID (see kernels_amd64.go).
//
// Precision contract: daxpy is bitwise-identical to the scalar loop it
// replaces. It performs round(round(a*s[j]) + d[j]) per element — the
// AVX2 version uses separate VMULPD/VADDPD (never FMA), which rounds
// exactly like the Go `d[j] += a * s[j]` it mirrors, and element order
// never changes.

// simdEnabled reports whether the AVX2 kernel is in use; init sets it
// once on amd64.
var simdEnabled = false

// daxpy computes dst[j] += alpha*src[j] for j in [0, len(dst)).
// len(src) must be >= len(dst). Bitwise-identical on every platform.
func daxpy(dst, src []float64, alpha float64) {
	if simdEnabled && len(dst) >= 8 {
		m := len(dst) &^ 7
		daxpyAVX2(dst[:m], src[:m], alpha)
		dst, src = dst[m:], src[m:]
	}
	for j := range dst {
		dst[j] += alpha * src[j]
	}
}
