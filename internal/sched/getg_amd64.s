#include "textflag.h"

// func gkey() uintptr
TEXT ·gkey(SB),NOSPLIT,$0-8
	MOVQ (TLS), R14
	MOVQ R14, ret+0(FP)
	RET
