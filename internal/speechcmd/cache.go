package speechcmd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Persistent feature cache: the fully featurised corpus spilled to disk in a
// compact checksummed binary format ("THFC"), so repeated training runs skip
// waveform synthesis and MFCC extraction entirely. The format follows the
// same discipline as the .thnt model format from internal/deploy: magic +
// version header, little-endian fixed-width fields, length validation
// before any allocation, and a CRC32 (IEEE) trailer over the body so a
// truncated or bit-flipped cache is detected and regenerated instead of
// silently training on garbage.
//
// Layout (all little-endian):
//
//	"THFC" | u32 version
//	body:
//	  config: i64 sampleRate, i64 seed, i64 samplesPerCls,
//	          f64 noiseStd, i64 jitterMs, f64 speakerVarPct
//	  u32 frames | u32 coeffs | f32 featMean | f32 featStd
//	  3 × split: u32 count, then per sample: i32 label, u16 wordLen, word
//	  feature block: count·frames·coeffs f32 values per split, contiguous
//	u32 crc32(body)
//
// All features live in one contiguous allocation per split; samples are
// tensor views into it (tensor.FromSlice), which keeps a reload at two
// large copies — the file read and the float decode — with no per-sample
// allocation churn.

// CacheMagic identifies a THFC feature-cache file.
const CacheMagic = "THFC"

// CacheVersion is the current cache format version. Version 2 marks the
// real-input FFT frontend: its power spectrum differs from the complex
// FFT's in the last float64 bits, so features cached by version 1 are not
// guaranteed to equal what Generate now computes.
const CacheVersion = 2

// ErrCacheCorrupt reports a structurally invalid or checksum-failing cache.
var ErrCacheCorrupt = errors.New("speechcmd: corrupt feature cache")

// ErrCacheMismatch reports a valid cache generated from a different Config.
var ErrCacheMismatch = errors.New("speechcmd: feature cache config mismatch")

const maxCachedWordLen = 64

type cacheWriter struct {
	buf []byte
}

func (w *cacheWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *cacheWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *cacheWriter) i32(v int32)  { w.u32(uint32(v)) }
func (w *cacheWriter) i64(v int64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }
func (w *cacheWriter) f32(v float32) {
	w.u32(math.Float32bits(v))
}
func (w *cacheWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

type cacheReader struct {
	buf []byte
	off int
	err error
}

func (r *cacheReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: truncated at offset %d (need %d bytes)", ErrCacheCorrupt, r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *cacheReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *cacheReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *cacheReader) i32() int32 { return int32(r.u32()) }

func (r *cacheReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *cacheReader) f32() float32 { return math.Float32frombits(r.u32()) }

func (r *cacheReader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// SaveCache writes the dataset to path in the THFC format, atomically: the
// bytes land in a temp file in the same directory which is renamed over
// path only after a successful write, so readers never observe a partial
// cache.
func (d *Dataset) SaveCache(path string) error {
	var w cacheWriter
	w.buf = append(w.buf, CacheMagic...)
	w.u32(CacheVersion)
	w.i64(int64(d.Config.SampleRate))
	w.i64(d.Config.Seed)
	w.i64(int64(d.Config.SamplesPerCls))
	w.f64(d.Config.NoiseStd)
	w.i64(int64(d.Config.JitterMs))
	w.f64(d.Config.SpeakerVarPct)
	w.u32(uint32(d.InputFrames))
	w.u32(uint32(d.InputCoeffs))
	w.f32(d.FeatMean)
	w.f32(d.FeatStd)
	dim := d.InputFrames * d.InputCoeffs
	for _, split := range [][]Sample{d.Train, d.Val, d.Test} {
		w.u32(uint32(len(split)))
		for _, s := range split {
			if len(s.Word) > maxCachedWordLen {
				return fmt.Errorf("speechcmd: word %q too long for cache", s.Word)
			}
			w.i32(int32(s.Label))
			w.u16(uint16(len(s.Word)))
			w.buf = append(w.buf, s.Word...)
		}
	}
	for _, split := range [][]Sample{d.Train, d.Val, d.Test} {
		for _, s := range split {
			if s.Features.Size() != dim {
				return fmt.Errorf("speechcmd: sample feature size %d, want %d", s.Features.Size(), dim)
			}
			for _, v := range s.Features.Data {
				w.f32(v)
			}
		}
	}
	crc := crc32.ChecksumIEEE(w.buf[len(CacheMagic)+4:])
	w.u32(crc)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".thfc-*")
	if err != nil {
		return fmt.Errorf("speechcmd: writing cache: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(w.buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("speechcmd: writing cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("speechcmd: writing cache: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("speechcmd: writing cache: %w", err)
	}
	return nil
}

// LoadCache reads a THFC cache written by SaveCache, verifying the checksum
// and every structural bound before allocating feature storage.
func LoadCache(path string) (*Dataset, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseCache(raw)
}

// parseCache decodes the bytes of a THFC cache. Every rejection wraps
// ErrCacheCorrupt, and no count is trusted before it is checked against
// the bytes that remain (FuzzLoadCache).
func parseCache(raw []byte) (*Dataset, error) {
	headerLen := len(CacheMagic) + 4
	if len(raw) < headerLen+4 {
		return nil, fmt.Errorf("%w: file too short (%d bytes)", ErrCacheCorrupt, len(raw))
	}
	if string(raw[:len(CacheMagic)]) != CacheMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCacheCorrupt)
	}
	version := binary.LittleEndian.Uint32(raw[len(CacheMagic):headerLen])
	if version != CacheVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCacheCorrupt, version)
	}
	body := raw[headerLen : len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrCacheCorrupt, got, want)
	}

	r := &cacheReader{buf: body}
	var cfg Config
	cfg.SampleRate = int(r.i64())
	cfg.Seed = r.i64()
	cfg.SamplesPerCls = int(r.i64())
	cfg.NoiseStd = r.f64()
	cfg.JitterMs = int(r.i64())
	cfg.SpeakerVarPct = r.f64()
	frames := int(r.u32())
	coeffs := int(r.u32())
	featMean := r.f32()
	featStd := r.f32()
	if r.err != nil {
		return nil, r.err
	}
	if frames <= 0 || coeffs <= 0 || frames > 1<<12 || coeffs > 1<<12 {
		return nil, fmt.Errorf("%w: implausible geometry %dx%d", ErrCacheCorrupt, frames, coeffs)
	}
	dim := frames * coeffs

	type meta struct {
		label int
		word  string
	}
	var splits [3][]meta
	total := 0
	for si := range splits {
		count := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		// Each sample costs at least 6 metadata bytes plus 4·dim feature
		// bytes; a count beyond that bound cannot be satisfied by the
		// remaining body, so reject it before allocating.
		if count < 0 || count > (len(body)-r.off)/6 || (total+count) > len(body)/(4*dim) {
			return nil, fmt.Errorf("%w: implausible split size %d", ErrCacheCorrupt, count)
		}
		ms := make([]meta, count)
		for i := range ms {
			label := int(r.i32())
			wl := int(r.u16())
			if wl > maxCachedWordLen {
				return nil, fmt.Errorf("%w: word length %d", ErrCacheCorrupt, wl)
			}
			wb := r.take(wl)
			if r.err != nil {
				return nil, r.err
			}
			if label < 0 || label >= NumClasses {
				return nil, fmt.Errorf("%w: label %d", ErrCacheCorrupt, label)
			}
			ms[i] = meta{label: label, word: string(wb)}
		}
		splits[si] = ms
		total += count
	}
	featBytes := r.take(total * dim * 4)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCacheCorrupt, len(body)-r.off)
	}
	feats := make([]float32, total*dim)
	for i := range feats {
		feats[i] = math.Float32frombits(binary.LittleEndian.Uint32(featBytes[i*4:]))
	}

	d := &Dataset{
		Config:      cfg,
		InputFrames: frames,
		InputCoeffs: coeffs,
		FeatMean:    featMean,
		FeatStd:     featStd,
	}
	off := 0
	build := func(ms []meta) []Sample {
		out := make([]Sample, len(ms))
		for i, m := range ms {
			out[i] = Sample{
				Features: tensor.FromSlice(feats[off:off+dim], frames, coeffs),
				Label:    m.label,
				Word:     m.word,
			}
			off += dim
		}
		return out
	}
	d.Train = build(splits[0])
	d.Val = build(splits[1])
	d.Test = build(splits[2])
	return d, nil
}

// GenerateCached returns the corpus for cfg, serving it from the THFC cache
// at path when the file is valid and was generated from an identical
// Config. On any miss — no file, corruption, config drift — it regenerates
// the corpus (featurising in parallel) and rewrites the cache. fromCache
// reports whether the warm path was taken; err is non-nil only when a cold
// generation cannot persist its result.
func GenerateCached(cfg Config, path string) (ds *Dataset, fromCache bool, err error) {
	if d, lerr := LoadCache(path); lerr == nil {
		if d.Config == cfg {
			telemetry.Default.Counter("speechcmd.cache.hit").Inc()
			return d, true, nil
		}
	}
	telemetry.Default.Counter("speechcmd.cache.miss").Inc()
	d := Generate(cfg)
	if serr := d.SaveCache(path); serr != nil {
		return d, false, serr
	}
	return d, false, nil
}
