package speechcmd

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.SamplesPerCls = 4
	return cfg
}

func datasetsEqual(t *testing.T, a, b *Dataset) {
	t.Helper()
	if a.Config != b.Config {
		t.Fatalf("config %+v vs %+v", a.Config, b.Config)
	}
	if a.InputFrames != b.InputFrames || a.InputCoeffs != b.InputCoeffs {
		t.Fatalf("geometry mismatch")
	}
	if a.FeatMean != b.FeatMean || a.FeatStd != b.FeatStd {
		t.Fatalf("normalisation stats differ: %v/%v vs %v/%v", a.FeatMean, a.FeatStd, b.FeatMean, b.FeatStd)
	}
	pairs := [][2][]Sample{{a.Train, b.Train}, {a.Val, b.Val}, {a.Test, b.Test}}
	for si, pair := range pairs {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("split %d: %d vs %d samples", si, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			sa, sb := pair[0][i], pair[1][i]
			if sa.Label != sb.Label || sa.Word != sb.Word {
				t.Fatalf("split %d sample %d metadata differs", si, i)
			}
			for j := range sa.Features.Data {
				if sa.Features.Data[j] != sb.Features.Data[j] {
					t.Fatalf("split %d sample %d feature %d differs", si, i, j)
				}
			}
		}
	}
}

func TestCacheRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	ds := Generate(cfg)
	path := filepath.Join(t.TempDir(), "feat.thfc")
	if err := ds.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, got)
}

func TestGenerateCachedColdThenWarm(t *testing.T) {
	cfg := tinyConfig()
	path := filepath.Join(t.TempDir(), "feat.thfc")
	cold, warm, err := GenerateCached(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("first call must be a cold miss")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cold path did not write the cache: %v", err)
	}
	reload, warm, err := GenerateCached(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("second call must hit the cache")
	}
	datasetsEqual(t, cold, reload)
}

func TestGenerateCachedConfigMismatchRegenerates(t *testing.T) {
	cfg := tinyConfig()
	path := filepath.Join(t.TempDir(), "feat.thfc")
	if _, _, err := GenerateCached(cfg, path); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	ds, warm, err := GenerateCached(cfg2, path)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("a different config must not hit the stale cache")
	}
	if ds.Config != cfg2 {
		t.Fatalf("regenerated dataset has config %+v", ds.Config)
	}
	// The rewritten cache now serves the new config warm.
	if _, warm, _ := GenerateCached(cfg2, path); !warm {
		t.Fatal("rewritten cache should be warm for the new config")
	}
}

func TestLoadCacheDetectsCorruption(t *testing.T) {
	cfg := tinyConfig()
	ds := Generate(cfg)
	dir := t.TempDir()
	path := filepath.Join(dir, "feat.thfc")
	if err := ds.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the feature block.
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0x40
	bad := filepath.Join(dir, "bad.thfc")
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCache(bad); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("bit flip: got %v, want ErrCacheCorrupt", err)
	}
	// Truncation at every interesting boundary must error, never panic.
	for _, cut := range []int{0, 3, 8, 40, len(raw) / 2, len(raw) - 1} {
		trunc := filepath.Join(dir, "trunc.thfc")
		if err := os.WriteFile(trunc, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCache(trunc); err == nil {
			t.Fatalf("truncation at %d bytes loaded successfully", cut)
		}
	}
	// GenerateCached must quietly regenerate over a corrupt file.
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	got, warm, err := GenerateCached(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("corrupt cache must be a miss")
	}
	datasetsEqual(t, ds, got)
	if _, warm, _ := GenerateCached(cfg, path); !warm {
		t.Fatal("cache must be valid again after regeneration")
	}
}

// TestGenerateCachedRewritesOldVersion checks that a cache written under an
// earlier format version is a miss: GenerateCached regenerates the corpus
// and rewrites the file at the current version, which then serves warm.
func TestGenerateCachedRewritesOldVersion(t *testing.T) {
	cfg := tinyConfig()
	path := filepath.Join(t.TempDir(), "feat.thfc")
	ds := Generate(cfg)
	if err := ds.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	version := raw[len(CacheMagic) : len(CacheMagic)+4]
	binary.LittleEndian.PutUint32(version, 1) // the header sits outside the CRC
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCache(path); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("v1 header: LoadCache returned %v, want ErrCacheCorrupt", err)
	}

	got, warm, err := GenerateCached(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("a v1 cache must be a miss")
	}
	datasetsEqual(t, ds, got)
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[len(CacheMagic):]); v != CacheVersion {
		t.Fatalf("rewritten cache has version %d, want %d", v, CacheVersion)
	}
	if _, warm, _ := GenerateCached(cfg, path); !warm {
		t.Fatal("the rewritten cache must serve warm")
	}
}

// smallCacheBytes is a real SaveCache output for a hand-built three-sample
// dataset, small enough for the fuzzer to mutate quickly.
func smallCacheBytes(f *testing.F) []byte {
	feats := []float32{0.5, -1, 2, 0, 3.25, -0.125, 1, 1, 1, -2, 4, 8, 0.75, 0.5, -0.25, 9, 7, 5}
	sample := func(i, label int, word string) Sample {
		return Sample{Features: tensor.FromSlice(feats[i*6:(i+1)*6], 2, 3), Label: label, Word: word}
	}
	ds := &Dataset{
		Config:      tinyConfig(),
		InputFrames: 2,
		InputCoeffs: 3,
		FeatMean:    0.25,
		FeatStd:     1.5,
		Train:       []Sample{sample(0, 2, "yes")},
		Val:         []Sample{sample(1, 0, "")},
		Test:        []Sample{sample(2, NumClasses-1, "go")},
	}
	path := filepath.Join(f.TempDir(), "seed.thfc")
	if err := ds.SaveCache(path); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzLoadCache feeds hostile bytes to the THFC reader. It must never
// panic, and every rejection must wrap ErrCacheCorrupt. Each input is also
// tried with its CRC trailer repaired, so mutations reach the structural
// checks behind the checksum; a cache the reader accepts must hold whole
// samples with in-range labels.
func FuzzLoadCache(f *testing.F) {
	raw := smallCacheBytes(f)
	f.Add(raw)
	for _, cut := range []int{0, 3, 8, 12, 40, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:cut])
	}
	for _, at := range []int{2, 6, 12, 60, 66, 70, len(raw) - 30, len(raw) - 2} {
		flipped := append([]byte(nil), raw...)
		flipped[at] ^= 0x41
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		repaired := append([]byte(nil), data...)
		if n := len(repaired); n >= len(CacheMagic)+8 {
			binary.LittleEndian.PutUint32(repaired[n-4:], crc32.ChecksumIEEE(repaired[len(CacheMagic)+4:n-4]))
		}
		for _, b := range [][]byte{data, repaired} {
			d, err := parseCache(b)
			if err != nil {
				if !errors.Is(err, ErrCacheCorrupt) {
					t.Fatalf("rejection %v does not wrap ErrCacheCorrupt", err)
				}
				continue
			}
			dim := d.InputFrames * d.InputCoeffs
			for _, split := range [][]Sample{d.Train, d.Val, d.Test} {
				for _, s := range split {
					if s.Features.Size() != dim || s.Label < 0 || s.Label >= NumClasses {
						t.Fatalf("accepted sample with %d features (want %d) and label %d", s.Features.Size(), dim, s.Label)
					}
				}
			}
		}
	})
}
