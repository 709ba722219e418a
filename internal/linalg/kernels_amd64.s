#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func d2RowsAVX2(a []float64, na float64, b, nb []float64, d int, out []float64)
//
// Lane l of an accumulator holds the partial sum s_l over the elements
// ≡ l mod 4, built by VMULPD then VADDPD (never a fused multiply-add), so
// each lane rounds as the scalar s_l += a[k]*b[k] does. A pass runs a
// against four rows of b, whose chunks are read as memory operands; the
// four accumulators are transposed so one vector sum gives each row's
// ((s0+s1)+s2)+s3 in its own lane. The d mod 4 tail is then added in
// order, one product per row per lane, and each lane becomes
// (na+nb)−(dot+dot) clamped by VMAXPD with zero as the first source, which
// keeps −0 and NaN as the scalar v < 0 test does. The rows left over run
// one at a time with the same operations on one lane.
TEXT ·d2RowsAVX2(SB), NOSPLIT, $0-112
	MOVQ         a_base+0(FP), SI
	VBROADCASTSD na+24(FP), Y9
	MOVQ         b_base+32(FP), DI
	MOVQ         nb_base+56(FP), R11
	MOVQ         d+80(FP), CX
	MOVQ         out_base+88(FP), DX
	MOVQ         out_len+96(FP), BX
	VXORPD       Y10, Y10, Y10
	SHLQ         $3, CX           // bytes from one row of b to the next, and of a row
	MOVQ         CX, R12
	ANDQ         $-32, R12        // bytes of a row the lanes cover
	CMPQ         BX, $4
	JLT          rows1

rows4:
	LEAQ   (DI)(CX*1), R8
	LEAQ   (DI)(CX*2), R9
	LEAQ   (R8)(CX*2), R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	PCALIGN $32

loop4:
	VMOVUPD (SI)(AX*1), Y4
	VMULPD  (DI)(AX*1), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R8)(AX*1), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R9)(AX*1), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R10)(AX*1), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, AX
	CMPQ    AX, R12
	JLT     loop4

	// transpose: lane r of Y0…Y3 becomes row r's s0…s3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VADDPD     Y1, Y0, Y0
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y0, Y0
	CMPQ       AX, CX
	JGE        gram4

tail4:
	VBROADCASTSD (SI)(AX*1), Y4
	VMOVSD       (DI)(AX*1), X5
	VMOVHPD      (R8)(AX*1), X5, X5
	VMOVSD       (R9)(AX*1), X6
	VMOVHPD      (R10)(AX*1), X6, X6
	VINSERTF128  $1, X6, Y5, Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, AX
	CMPQ         AX, CX
	JLT          tail4

gram4:
	VADDPD  (R11), Y9, Y6
	VADDPD  Y0, Y0, Y0
	VSUBPD  Y0, Y6, Y6
	VMAXPD  Y6, Y10, Y6
	VMOVUPD Y6, (DX)
	ADDQ    $32, DX
	ADDQ    $32, R11
	LEAQ    (R10)(CX*1), DI
	SUBQ    $4, BX
	CMPQ    BX, $4
	JGE     rows4

rows1:
	TESTQ BX, BX
	JEQ   done

row1:
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	PCALIGN $32

loop1:
	VMOVUPD (SI)(AX*1), Y4
	VMULPD  (DI)(AX*1), Y4, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    $32, AX
	CMPQ    AX, R12
	JLT     loop1

	VEXTRACTF128 $1, Y0, X1
	VUNPCKHPD    X0, X0, X2
	VADDSD       X2, X0, X0
	VADDSD       X1, X0, X0
	VUNPCKHPD    X1, X1, X1
	VADDSD       X1, X0, X0
	CMPQ         AX, CX
	JGE          gram1

tail1:
	VMOVSD (SI)(AX*1), X4
	VMULSD (DI)(AX*1), X4, X4
	VADDSD X4, X0, X0
	ADDQ   $8, AX
	CMPQ   AX, CX
	JLT    tail1

gram1:
	VADDSD (R11), X9, X6
	VADDSD X0, X0, X0
	VSUBSD X0, X6, X6
	VMAXSD X6, X10, X6
	VMOVSD X6, (DX)
	ADDQ   $8, DX
	ADDQ   $8, R11
	ADDQ   CX, DI
	DECQ   BX
	JNZ    row1

done:
	VZEROUPPER
	RET
