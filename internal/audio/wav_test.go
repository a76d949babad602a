package audio

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = rng.Float64()*1.8 - 0.9
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, samples, 4000); err != nil {
		t.Fatal(err)
	}
	got, rate, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 4000 {
		t.Fatalf("rate %d, want 4000", rate)
	}
	if len(got) != len(samples) {
		t.Fatalf("length %d, want %d", len(got), len(samples))
	}
	for i := range samples {
		if math.Abs(got[i]-samples[i]) > 1.0/32000 {
			t.Fatalf("sample %d: %v vs %v", i, got[i], samples[i])
		}
	}
}

func TestWriteWAVClampsOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, []float64{5, -5, 0}, 8000); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-1) > 1e-3 || math.Abs(got[1]+1) > 1e-3 {
		t.Fatalf("clamping failed: %v", got)
	}
}

func TestWriteWAVRejectsBadRate(t *testing.T) {
	if err := WriteWAV(&bytes.Buffer{}, []float64{0}, 0); err == nil {
		t.Fatal("expected error for zero rate")
	}
}

func TestReadWAVRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("short"),
		[]byte("RIFFxxxxWAVEdata"),
		bytes.Repeat([]byte{0}, 64),
	} {
		if _, _, err := ReadWAV(bytes.NewReader(data)); err == nil {
			t.Fatalf("accepted garbage %q", data)
		}
	}
}

func TestReadWAVStereoTakesFirstChannel(t *testing.T) {
	// Hand-build a stereo file: L=0.5, R=-0.5 for 4 frames.
	var buf bytes.Buffer
	var hdr bytes.Buffer
	hdr.WriteString("RIFF")
	hdr.Write([]byte{0, 0, 0, 0})
	hdr.WriteString("WAVE")
	hdr.WriteString("fmt ")
	hdr.Write([]byte{16, 0, 0, 0})
	hdr.Write([]byte{1, 0})             // PCM
	hdr.Write([]byte{2, 0})             // stereo
	hdr.Write([]byte{0x80, 0x3e, 0, 0}) // 16000 Hz
	hdr.Write([]byte{0, 0xfa, 0, 0})
	hdr.Write([]byte{4, 0})
	hdr.Write([]byte{16, 0})
	hdr.WriteString("data")
	hdr.Write([]byte{16, 0, 0, 0}) // 4 frames × 4 bytes
	buf.Write(hdr.Bytes())
	for i := 0; i < 4; i++ {
		buf.Write([]byte{0xff, 0x3f}) // L ≈ 0.5
		buf.Write([]byte{0x01, 0xc0}) // R ≈ -0.5
	}
	got, rate, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 16000 || len(got) != 4 {
		t.Fatalf("rate=%d n=%d", rate, len(got))
	}
	for _, v := range got {
		if math.Abs(v-0.5) > 0.01 {
			t.Fatalf("expected left channel 0.5, got %v", v)
		}
	}
}

func TestReadWAVSkipsUnknownOddChunkWithPad(t *testing.T) {
	// A LIST chunk of odd size must be skipped including its pad byte, or the
	// following fmt/data chunks land misaligned and parsing fails.
	var ref bytes.Buffer
	if err := WriteWAV(&ref, []float64{0.25, -0.25, 0.5}, 8000); err != nil {
		t.Fatal(err)
	}
	full := ref.Bytes()
	var buf bytes.Buffer
	buf.Write(full[:12]) // RIFF header
	buf.WriteString("LIST")
	buf.Write([]byte{3, 0, 0, 0})       // odd size
	buf.Write([]byte{'i', 'n', 'f', 0}) // 3 bytes + pad
	buf.Write(full[12:])                // fmt + data
	got, rate, err := ReadWAV(&buf)
	if err != nil {
		t.Fatalf("odd unknown chunk broke parsing: %v", err)
	}
	if rate != 8000 || len(got) != 3 {
		t.Fatalf("rate=%d n=%d after odd chunk skip", rate, len(got))
	}
}

// riffWith returns a RIFF/WAVE header followed by one chunk header claiming
// the given id and size, with body bytes actually present.
func riffWith(id string, size uint32, body []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString("RIFF")
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	buf.WriteString("WAVE")
	buf.WriteString(id)
	var sz [4]byte
	binary.LittleEndian.PutUint32(sz[:], size)
	buf.Write(sz[:])
	buf.Write(body)
	return buf.Bytes()
}

// Hostile chunk headers must fail with an error, not a size-sized
// allocation: claimed sizes beyond the cap are rejected outright, and sizes
// within the cap only allocate as many bytes as the stream actually holds.
func TestReadWAVHostileChunkSizes(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"data chunk over cap", riffWith("data", maxDataChunkBytes+1, nil)},
		{"fmt chunk over cap", riffWith("fmt ", 1<<30, nil)},
		{"data chunk short body", riffWith("data", 1<<20, []byte{1, 2, 3, 4})},
		{"fmt chunk short body", riffWith("fmt ", 64, []byte{1, 0})},
		{"unknown chunk short body", riffWith("LIST", 1<<28, []byte("abc"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := ReadWAV(bytes.NewReader(tc.data)); err == nil {
				t.Fatal("hostile header accepted")
			}
		})
	}
}

// Property: round trips preserve in-range audio to 16-bit precision.
func TestQuickWAVRoundTrip(t *testing.T) {
	f := func(raw []int16, rateSel bool) bool {
		rate := 4000
		if rateSel {
			rate = 16000
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v) / 32767
		}
		var buf bytes.Buffer
		if err := WriteWAV(&buf, samples, rate); err != nil {
			return false
		}
		got, gotRate, err := ReadWAV(&buf)
		if err != nil || gotRate != rate || len(got) != len(samples) {
			return false
		}
		for i := range samples {
			if math.Abs(got[i]-samples[i]) > 1.0/16000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestResampleLength(t *testing.T) {
	in := make([]float64, 4000)
	out := Resample(in, 4000, 16000)
	if len(out) != 16000 {
		t.Fatalf("upsample length %d", len(out))
	}
	down := Resample(out, 16000, 4000)
	if len(down) != 4000 {
		t.Fatalf("downsample length %d", len(down))
	}
}

func TestResamplePreservesSine(t *testing.T) {
	const from, to = 16000, 4000
	in := make([]float64, from)
	for i := range in {
		in[i] = math.Sin(2 * math.Pi * 440 * float64(i) / from)
	}
	out := Resample(in, from, to)
	// The 440 Hz tone is far below the 2 kHz Nyquist of the target rate:
	// check a few interior samples against the analytic value.
	for _, i := range []int{100, 500, 1500, 3000} {
		want := math.Sin(2 * math.Pi * 440 * float64(i) / to)
		if math.Abs(out[i]-want) > 0.05 {
			t.Fatalf("resampled sine off at %d: %v vs %v", i, out[i], want)
		}
	}
}

func TestResampleIdentity(t *testing.T) {
	in := []float64{1, 2, 3}
	if out := Resample(in, 8000, 8000); &out[0] != &in[0] {
		t.Fatal("same-rate resample should be a no-op")
	}
}
