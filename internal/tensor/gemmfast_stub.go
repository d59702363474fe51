//go:build !amd64

package tensor

// Non-amd64 builds have no SIMD microkernel; FastGemmTB falls back to the
// portable scalar path and this stub is never reached (fastKernelAvailable
// stays false).
func fmaDot4x2(a0, a1, a2, a3, b0, b1 *float64, n int, out *[8]float64) {
	panic("tensor: fmaDot4x2 called without SIMD support")
}

func axpyRowAVX(c *float64, n int, s *float64, off *int, b *float64, cnt int, zero bool) {
	panic("tensor: axpyRowAVX called without SIMD support")
}

func dotTilesAVX(a *float64, aStride int, b *float64, bStride int, k int, c *float64, cStride int, tiles int, alpha float64) {
	panic("tensor: dotTilesAVX called without SIMD support")
}

func dotRowAVX(a *float64, b *float64, bStride int, k int, c *float64, n int, alpha float64) {
	panic("tensor: dotRowAVX called without SIMD support")
}

func addScaledAVX(d *float64, a float64, s *float64, n int) {
	panic("tensor: addScaledAVX called without SIMD support")
}

func sigmoidAVX(d *float64, n int) int {
	panic("tensor: sigmoidAVX called without SIMD support")
}
