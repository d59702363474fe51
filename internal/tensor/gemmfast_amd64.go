package tensor

// Runtime detection and declarations for the AVX2+FMA inference microkernel.
// The fast path is gated on CPUID: FMA + AVX (with OS-enabled YMM state via
// XGETBV) + AVX2. Everything else falls back to the portable scalar kernels.

func init() {
	fastKernelAvailable = detectAVX2FMA()
	exactKernels = fastKernelAvailable && !raceEnabled
}

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// OS must have enabled XMM (bit 1) and YMM (bit 2) state saving.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

//go:noescape
func fmaDot4x2(a0, a1, a2, a3, b0, b1 *float64, n int, out *[8]float64)

//go:noescape
func axpyRowAVX(c *float64, n int, s *float64, off *int, b *float64, cnt int, zero bool)

//go:noescape
func dotTilesAVX(a *float64, aStride int, b *float64, bStride int, k int, c *float64, cStride int, tiles int, alpha float64)

//go:noescape
func dotRowAVX(a *float64, b *float64, bStride int, k int, c *float64, n int, alpha float64)

//go:noescape
func addScaledAVX(d *float64, a float64, s *float64, n int)

func cpuidex(op, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)
