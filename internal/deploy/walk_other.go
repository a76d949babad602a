//go:build !amd64 || purego

package deploy

// Without the amd64 assembly (another architecture, or -tags purego) every
// row takes the portable Go walk and the Go requant loops; the kernel stubs
// are never called.
const rowWalkAVX2 = false

func walkI8AVX2(acc []int32, planes []byte, masks []uint64, stride int) {
	panic("deploy: no assembly row walk in this build")
}

func walkI16AVX2(acc []int32, planes []int16, masks []uint64, stride int) {
	panic("deploy: no assembly row walk in this build")
}

func requantI8AVX2(dst []int8, acc []int32, mant int32, shift uint8, b, lo int32) {
	panic("deploy: no assembly requant row in this build")
}

func requantHid16AVX2(dst []int16, acc []int32, mant int32, shift uint8) {
	panic("deploy: no assembly requant row in this build")
}
