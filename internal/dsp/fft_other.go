//go:build !amd64 || purego

package dsp

// Without the amd64 assembly (another architecture, or -tags purego)
// cpuid.AVX2 is false and every transform takes the Go loops; the kernel
// stubs are never called.

func stagesAVX2(x, tw []complex128) {
	panic("dsp: no assembly FFT stages in this build")
}

func splitAVX2(dst []float64, buf, w []complex128) {
	panic("dsp: no assembly FFT split in this build")
}
