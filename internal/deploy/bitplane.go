package deploy

// Word-packed ternary kernels.
//
// The kernels here process eight int8 activations per 64-bit load (SWAR): a
// word of activations is biased to unsigned bytes with one XOR, split into
// even and odd byte lanes, and accumulated into two uint64 registers holding
// four 16-bit partial sums each. The bias is corrected once per fold with a
// per-chunk constant, so every intermediate quantity is an exactly
// represented integer and the word path stays bit-identical to the scalar
// gathers and the naive dense reference.
//
// Two's-complement identities the kernels rely on, per 8-bit lane:
//
//	v XOR 0x80 = v + 128   (maps int8 to unsigned, bias +128)
//	v XOR 0x7f = 127 − v   (biased complement: subtraction becomes addition)
//
// so a +1 plane adds v+128 per element, a −1 plane adds 127−v, and the fold
// subtracts 128·n₊ + 127·n₋ to recover Σ₊v − Σ₋v exactly. A 16-bit lane
// holds at most 255 per plane, so plane accumulation folds into the int32
// accumulators every 256 planes (256·255 < 2¹⁶).
//
// Convolutions keep their ±1 plane masks (sparseRows): each selected plane
// is swept eight values per load (gatherPlanesI8W) — eight output columns
// of one frame, on the single-frame and hop paths alike. One SWAR add per
// nonzero is the paper's one-add-per-nonzero cost. gatherPlanesI8W is the
// portable Go walk: where the CPU runs AVX2, rows with a column count
// divisible by 8 take the assembly walk instead (walk.go). The Bonsai
// tree's dense maps decode the same masks scalar (runDot in kernels.go); a
// form that selected their activation bytes through a byte-expanding LUT
// measured slower (DESIGN.md, "Word-packed SWAR gathers").

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

const (
	laneMaskE8 = 0x00FF00FF00FF00FF // even byte lanes of a 64-bit word
	biasI8     = 0x8080808080808080 // per byte: v ⊕ 0x80 = v + 128
	biasI8Neg  = 0x7f7f7f7f7f7f7f7f // per byte: v ⊕ 0x7f = 127 − v

	// chunkPlanes8 bounds how many ±1 planes accumulate into 16-bit lanes
	// before they must fold into int32 (256 · 255 < 2¹⁶).
	chunkPlanes8 = 256
	// chunkWords is chunkPlanes8 in mask words: a column is +1 or −1, never
	// both, so the same four words of both masks select at most 256 planes.
	chunkWords = chunkPlanes8 >> 6

	// sumBytesMax is the longest run sumBytesI8 sums exactly: after the
	// even/odd fold each 16-bit lane holds n/4 biased bytes, and
	// 1024/4 · 255 < 2¹⁶.
	sumBytesMax = 1024
)

// i8Bytes reinterprets an int8 slice as its underlying bytes so the word
// kernels can issue single 64-bit loads. int8 and byte share representation;
// the view aliases the same memory and allocates nothing.
func i8Bytes(s []int8) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s))
}

// spreadLanes writes one group's two SWAR accumulators (even/odd 16-bit
// lanes, bias-corrected by corr) into its eight int32 outputs, assigning on
// the first chunk and adding on later ones.
func spreadLanes(d []int32, ev, od uint64, corr int32, first bool) {
	d = d[:8]
	if first {
		d[0] = int32(ev&0xFFFF) - corr
		d[1] = int32(od&0xFFFF) - corr
		d[2] = int32((ev>>16)&0xFFFF) - corr
		d[3] = int32((od>>16)&0xFFFF) - corr
		d[4] = int32((ev>>32)&0xFFFF) - corr
		d[5] = int32((od>>32)&0xFFFF) - corr
		d[6] = int32(ev>>48) - corr
		d[7] = int32(od>>48) - corr
	} else {
		d[0] += int32(ev&0xFFFF) - corr
		d[1] += int32(od&0xFFFF) - corr
		d[2] += int32((ev>>16)&0xFFFF) - corr
		d[3] += int32((od>>16)&0xFFFF) - corr
		d[4] += int32((ev>>32)&0xFFFF) - corr
		d[5] += int32((od>>32)&0xFFFF) - corr
		d[6] += int32(ev>>48) - corr
		d[7] += int32(od>>48) - corr
	}
}

// gatherPlanesI8W computes acc[j] = Σ₊ cols[p·nOut+j] − Σ₋ cols[m·nOut+j]
// for j in [0, nOut): the word-packed form of the scalar gather over the
// planes the plus/minus masks select. cols is the byte view of the int8
// plane matrix (plane stride nOut). Output columns are walked in tiles of
// four 8-wide groups with the plane sweep innermost, so the eight SWAR lane
// accumulators live in registers for the whole sweep and each plane costs
// one 32-byte strip of loads per tile; the tail past the last full group
// runs scalar. Planes fold in chunks of chunkWords mask words. Bit-exact
// with the scalar gather: all lane arithmetic is exact (see the file
// comment) and int32 addition commutes mod 2³².
func gatherPlanesI8W(acc []int32, cols []byte, plus, minus []uint64, nOut int) {
	nG := nOut >> 3
	tail := nG << 3
	acc = acc[:nOut]
	for j := tail; j < nOut; j++ {
		var s int32
		for k, m := range plus {
			for ; m != 0; m &= m - 1 {
				s += int32(int8(cols[(k<<6+bits.TrailingZeros64(m))*nOut+j]))
			}
		}
		for k, m := range minus {
			for ; m != 0; m &= m - 1 {
				s -= int32(int8(cols[(k<<6+bits.TrailingZeros64(m))*nOut+j]))
			}
		}
		acc[j] = s
	}
	first := true
	for k0 := 0; k0 < len(plus); k0 += chunkWords {
		p := plus[k0:min(k0+chunkWords, len(plus))]
		m := minus[k0:][:len(p)]
		var np, nm int
		for k := range p {
			np += bits.OnesCount64(p[k])
			nm += bits.OnesCount64(m[k])
		}
		if np+nm == 0 {
			continue
		}
		corr := int32(128*np + 127*nm)
		// Plane 64·(k0+k)+b sits at chunk[(64·k+b)·nOut:].
		chunk := cols[k0<<6*nOut:]
		g := 0
		for ; g+3 < nG; g += 4 {
			base := g << 3
			var e0, o0, e1, o1, e2, o2, e3, o3 uint64
			for k, pm := range p {
				for ; pm != 0; pm &= pm - 1 {
					off := (k<<6+bits.TrailingZeros64(pm))*nOut + base
					// The 32-byte subslice bounds the strip once, so the
					// compiler proves the four constant-offset loads in
					// range and drops their checks (~25% off the kernel).
					src := chunk[off : off+32]
					w0 := binary.LittleEndian.Uint64(src) ^ biasI8
					w1 := binary.LittleEndian.Uint64(src[8:16]) ^ biasI8
					w2 := binary.LittleEndian.Uint64(src[16:24]) ^ biasI8
					w3 := binary.LittleEndian.Uint64(src[24:32]) ^ biasI8
					e0 += w0 & laneMaskE8
					o0 += (w0 >> 8) & laneMaskE8
					e1 += w1 & laneMaskE8
					o1 += (w1 >> 8) & laneMaskE8
					e2 += w2 & laneMaskE8
					o2 += (w2 >> 8) & laneMaskE8
					e3 += w3 & laneMaskE8
					o3 += (w3 >> 8) & laneMaskE8
				}
			}
			for k, mm := range m {
				for ; mm != 0; mm &= mm - 1 {
					off := (k<<6+bits.TrailingZeros64(mm))*nOut + base
					src := chunk[off : off+32]
					w0 := binary.LittleEndian.Uint64(src) ^ biasI8Neg
					w1 := binary.LittleEndian.Uint64(src[8:16]) ^ biasI8Neg
					w2 := binary.LittleEndian.Uint64(src[16:24]) ^ biasI8Neg
					w3 := binary.LittleEndian.Uint64(src[24:32]) ^ biasI8Neg
					e0 += w0 & laneMaskE8
					o0 += (w0 >> 8) & laneMaskE8
					e1 += w1 & laneMaskE8
					o1 += (w1 >> 8) & laneMaskE8
					e2 += w2 & laneMaskE8
					o2 += (w2 >> 8) & laneMaskE8
					e3 += w3 & laneMaskE8
					o3 += (w3 >> 8) & laneMaskE8
				}
			}
			spreadLanes(acc[base:], e0, o0, corr, first)
			spreadLanes(acc[base+8:], e1, o1, corr, first)
			spreadLanes(acc[base+16:], e2, o2, corr, first)
			spreadLanes(acc[base+24:], e3, o3, corr, first)
		}
		for ; g < nG; g++ {
			base := g << 3
			var ev, od uint64
			for k, pm := range p {
				for ; pm != 0; pm &= pm - 1 {
					w := binary.LittleEndian.Uint64(chunk[(k<<6+bits.TrailingZeros64(pm))*nOut+base:]) ^ biasI8
					ev += w & laneMaskE8
					od += (w >> 8) & laneMaskE8
				}
			}
			for k, mm := range m {
				for ; mm != 0; mm &= mm - 1 {
					w := binary.LittleEndian.Uint64(chunk[(k<<6+bits.TrailingZeros64(mm))*nOut+base:]) ^ biasI8Neg
					ev += w & laneMaskE8
					od += (w >> 8) & laneMaskE8
				}
			}
			spreadLanes(acc[base:], ev, od, corr, first)
		}
		first = false
	}
	if first {
		for j := 0; j < tail; j++ {
			acc[j] = 0
		}
	}
}
