//go:build !amd64

package tensor

// Non-amd64 builds have no SIMD kernels; exactKernels stays false, so these
// stubs are never reached.
func axpyRowAVX(c *float64, n int, s *float64, off *int, b *float64, cnt int, zero bool) {
	panic("tensor: axpyRowAVX called without SIMD support")
}

func dotTilesAVX(a *float64, aStride int, b *float64, bStride int, k int, c *float64, cStride int, tiles int, alpha float64) {
	panic("tensor: dotTilesAVX called without SIMD support")
}

func axpyRowAVX512(c *float64, n int, s *float64, off *int, b *float64, cnt int, zero bool) {
	panic("tensor: axpyRowAVX512 called without SIMD support")
}

func dotTilesAVX512(a *float64, aStride int, b *float64, bStride int, k int, c *float64, cStride int, cols int, alpha float64) {
	panic("tensor: dotTilesAVX512 called without SIMD support")
}

func dotRowAVX512(a *float64, b *float64, bStride int, k int, c *float64, n int, alpha float64) {
	panic("tensor: dotRowAVX512 called without SIMD support")
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
