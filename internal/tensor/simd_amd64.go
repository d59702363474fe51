package tensor

// Runtime detection and declarations for the training kernels. They are
// gated on CPUID: FMA + AVX (with OS-enabled YMM state via XGETBV) + AVX2; the
// eight-lane set also on CPUID.(7,0):EBX[16] (AVX512F) with OS-enabled ZMM
// state. Everything else falls back to the portable scalar kernels.

func init() {
	avx2FMA, avx512F := detectSIMD()
	exactKernels = avx2FMA && !raceEnabled
	wideKernels = exactKernels && avx512F
}

// detectSIMD reports AVX2+FMA and, beside them, AVX512F with the OS saving
// ZMM state.
func detectSIMD() (avx2FMA, avx512F bool) {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false, false
	}
	// OS must have enabled XMM (bit 1) and YMM (bit 2) state saving, and for
	// ZMM also the opmask (5), ZMM0–15's upper halves (6) and ZMM16–31 (7).
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2Bit, avx512FBit = 1 << 5, 1 << 16
	return ebx7&avx2Bit != 0, ebx7&avx512FBit != 0 && xcr0&0xe6 == 0xe6
}

//go:noescape
func axpyRowAVX(c *float64, n int, s *float64, off *int, b *float64, cnt int, zero bool)

//go:noescape
func dotTilesAVX(a *float64, aStride int, b *float64, bStride int, k int, c *float64, cStride int, tiles int, alpha float64)

//go:noescape
func axpyRowAVX512(c *float64, n int, s *float64, off *int, b *float64, cnt int, zero bool)

//go:noescape
func dotTilesAVX512(a *float64, aStride int, b *float64, bStride int, k int, c *float64, cStride int, cols int, alpha float64)

//go:noescape
func dotRowAVX512(a *float64, b *float64, bStride int, k int, c *float64, n int, alpha float64)

//go:noescape
func dotRowAVX(a *float64, b *float64, bStride int, k int, c *float64, n int, alpha float64)

//go:noescape
func spmmDotFMA(c *float64, cStride int, rowPtr *int, colIdx *int, val *float64, b *float64, rows int, alpha float64)

//go:noescape
func addScaledAVX(d *float64, a float64, s *float64, n int)

//go:noescape
func sigmoidAVX(d *float64, n int) int

func cpuidex(op, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)
