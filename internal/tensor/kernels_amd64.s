//go:build amd64

#include "textflag.h"

// func cpuidAsm(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func daxpyAVX2(dst, src []float64, alpha float64)
// dst[j] += alpha*src[j]; len(dst) is a positive multiple of 8.
// VMULPD+VADDPD, never FMA: per element this rounds the product first,
// then the sum — exactly like the scalar Go loop it replaces, so the
// float64 path stays bitwise-reference.
TEXT ·daxpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD alpha+48(FP), Y0

daxpy_loop:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     daxpy_loop
	VZEROUPPER
	RET
