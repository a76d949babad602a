//go:build !amd64 || purego

package deploy

// Without the amd64 assembly (another architecture, or -tags purego) every
// row takes the portable Go walk; the kernel stubs are never called.
const rowWalkAVX2 = false

func walkI8AVX2(acc []int32, planes []byte, plus, minus []int32, stride int) {
	panic("deploy: no assembly row walk in this build")
}

func walkI16AVX2(acc []int32, planes []int16, plus, minus []int32, stride int) {
	panic("deploy: no assembly row walk in this build")
}
