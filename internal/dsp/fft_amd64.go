//go:build amd64 && !purego

package dsp

// Declarations for the AVX2 transform kernels in fft_amd64.s. Each runs its
// Go loop (stagesGo, splitGo) two complex values per ymm register with the
// same per-lane operations in the same order and no FMA, so the results
// match the Go loops bit for bit.

// stagesAVX2 is stagesGo for a plan of n = len(x) ≥ minStagesAVX2 points
// (a power of two); tw holds the plan's first n twiddles.
//
//go:noescape
func stagesAVX2(x, tw []complex128)

// splitAVX2 is splitGo for n = len(buf) ≥ minSplitAVX2 points (a power of
// two); it writes dst[1:n] and reads buf[1:n] and w[1:n/2+1].
//
//go:noescape
func splitAVX2(dst []float64, buf, w []complex128)
