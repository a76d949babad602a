//go:build amd64 && !purego

package cpuid

// AVX2 reports whether this CPU and OS run AVX2, checked once at package
// init.
var AVX2 = hasAVX2()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// hasAVX2 needs CPUID leaf 7 to advertise AVX2, leaf 1 to advertise AVX and
// OSXSAVE, and XCR0 to show the OS saving XMM and YMM state across context
// switches.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xgetbv0()&xmmYmm != xmmYmm {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
