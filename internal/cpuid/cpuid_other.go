//go:build !amd64 || purego

package cpuid

// AVX2 is false without the amd64 assembly: every kernel takes its portable
// Go loop.
const AVX2 = false
