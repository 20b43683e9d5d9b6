// AVX beamforming sweep. See beam_amd64.go for the contract and plan.go
// (beamRowAVX) for the bit-identity argument. Pure AVX1: VBROADCASTSD,
// VMOVUPD, VMULPD/VADDPD/VSUBPD on ymm — deliberately no FMA, which would
// change rounding versus the scalar Go kernel.

#include "textflag.h"

// func beamSweepAVX(row *float64, n, nAnt int, s, wre, wim *float64, stride int) (rowMax float64, rowNaN bool)
//
// For each angle quad a in [0, n) step 4 (n is a multiple of 4):
//
//	re = s[0]; im = s[1]                       // antenna-0 seed, broadcast
//	for k = 1 .. nAnt-1:
//	    wr = wre[k*stride + a .. +4]; wi = wim[k*stride + a .. +4]
//	    re += s[2k]*wr - s[2k+1]*wi
//	    im += s[2k]*wi + s[2k+1]*wr
//	v = re*re + im*im
//	row[a .. +4] = v
//	mx = max(v, mx)                            // per lane; NaN v keeps mx
//	un |= unordered(v, v)                      // per lane NaN mask
//
// then rowMax = the max of mx's four lanes and rowNaN = any lane of un.
// MAXPD returns its second source when either source is NaN or they
// compare equal, so with the accumulator as the second source (Intel
// order; it is the first operand in Go's reversed order) a NaN power
// leaves it unchanged — the scalar kernel's "if v > m { m = v }". The
// accumulator starts at +0 and never holds a NaN, so the lane reduction
// order does not matter.
TEXT ·beamSweepAVX(SB), NOSPLIT, $0-65
	MOVQ row+0(FP), DI
	MOVQ n+8(FP), DX
	MOVQ nAnt+16(FP), AX
	MOVQ s+24(FP), SI
	MOVQ wre+32(FP), R8
	MOVQ wim+40(FP), R9
	MOVQ stride+48(FP), R10

	SHLQ $3, DX         // byte limit of the quad index
	SHLQ $3, R10        // steering row stride in bytes
	DECQ AX             // antennas beyond the seed
	XORQ CX, CX         // quad index, in bytes
	VXORPD Y8, Y8, Y8   // row max accumulator, per lane
	VXORPD Y9, Y9, Y9   // row NaN mask, per lane

	TESTQ DX, DX
	JE    done

quad:
	VBROADCASTSD 0(SI), Y0  // re = s0r
	VBROADCASTSD 8(SI), Y1  // im = s0i

	MOVQ R8, R11        // roving steering-Re row pointer (advanced to k=1 below)
	MOVQ R9, R12        // roving steering-Im row pointer
	LEAQ 16(SI), R13    // roving packed-spectra pointer, at antenna 1
	MOVQ AX, BX
	TESTQ BX, BX
	JE   square

antenna:
	ADDQ R10, R11
	ADDQ R10, R12
	VBROADCASTSD 0(R13), Y4      // skr
	VBROADCASTSD 8(R13), Y5      // ski
	VMOVUPD (R11)(CX*1), Y14     // wr
	VMOVUPD (R12)(CX*1), Y15     // wi
	VMULPD  Y14, Y4, Y2          // skr*wr
	VMULPD  Y15, Y5, Y3          // ski*wi
	VMULPD  Y15, Y4, Y15         // skr*wi
	VMULPD  Y14, Y5, Y14         // ski*wr
	VSUBPD  Y3, Y2, Y2           // skr*wr - ski*wi
	VADDPD  Y2, Y0, Y0           // re +=
	VADDPD  Y14, Y15, Y15        // skr*wi + ski*wr
	VADDPD  Y15, Y1, Y1          // im +=
	ADDQ $16, R13
	DECQ BX
	JNE  antenna

square:
	VMULPD  Y0, Y0, Y2
	VMULPD  Y1, Y1, Y3
	VADDPD  Y3, Y2, Y2           // re*re + im*im
	VMOVUPD Y2, (DI)(CX*1)
	VMAXPD  Y8, Y2, Y8           // mx = v > mx ? v : mx
	VCMPPD  $3, Y2, Y2, Y3       // UNORD_Q: all ones where v is NaN
	VORPD   Y3, Y9, Y9
	ADDQ $32, CX
	CMPQ CX, DX
	JLT  quad

done:
	VEXTRACTF128 $1, Y8, X3
	VMAXPD       X3, X8, X8
	VPERMILPD    $1, X8, X3
	VMAXPD       X3, X8, X8
	VMOVSD       X8, rowMax+56(FP)
	VMOVMSKPD    Y9, AX
	TESTL        AX, AX
	SETNE        rowNaN+64(FP)
	VZEROUPPER
	RET

// func cpuHasAVX() bool
//
// CPUID leaf 1: ECX bit 27 = OSXSAVE, bit 28 = AVX; then XGETBV(0) bits
// 1 and 2 confirm the OS saves/restores xmm+ymm state.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVQ $1, AX
	CPUID
	MOVL CX, BX
	ANDL $0x18000000, BX
	CMPL BX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
