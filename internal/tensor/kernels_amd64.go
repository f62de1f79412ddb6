//go:build amd64

package tensor

// CPUID feature detection, hand-rolled so the package stays
// dependency-free. The vector kernel needs AVX2, and the OS must have
// enabled YMM state saving (OSXSAVE + XCR0 bits 1|2).

func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

func init() {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	if ebx7&avx2Bit == 0 {
		return
	}
	simdEnabled = true
}

// daxpyAVX2 computes dst[j] += alpha*src[j] with VMULPD+VADDPD (no FMA,
// to keep float64 rounding identical to the scalar loop).
// len(dst) must be a positive multiple of 8; len(src) >= len(dst).
func daxpyAVX2(dst, src []float64, alpha float64)
