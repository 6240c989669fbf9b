package matrix

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadTSV checks the byte-scanning parser against referenceReadTSV — the
// same names and cell bits, or the same error text — and that everything it
// accepts survives two round trips bit-exactly: through WriteTSV and back,
// and through the canonical encoder and decoder. Both keep the shape, the
// names, the values (NaNs included) and therefore the content hash.
func FuzzReadTSV(f *testing.F) {
	f.Add("gene\ta\tb\ng1\t1\t2\n")
	f.Add("g1\t1\t2\ng2\t3\t4\n")
	f.Add("# comment\n\ng1\tNA\t\n")
	f.Add("gene\ta\ng1\tnot-a-number\n")
	f.Add("\t\t\t\n")
	f.Add("g1\t1e308\t-1e308\n")
	f.Add("gene\tNA\tb\nx\t0.1\t-0\n")
	f.Add("1\t2\t3\n")
	f.Add("solo\nhead\tx\r\r\ng\t NuLl \t0x1p-2\n")
	f.Add("g1\t1\t2\ng2\t1\tbad\t3\n")
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ReadTSV(strings.NewReader(input))
		ref, refErr := referenceReadTSV(strings.NewReader(input))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ReadTSV error %v, reference error %v\ninput: %q", err, refErr, input)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("error text %q, reference %q\ninput: %q", err, refErr, input)
			}
			return
		}
		if !m.Equal(ref) || !sameBits(m, ref) {
			t.Fatalf("parse differs from the reference:\n%v\nreference:\n%v\ninput: %q", m, ref, input)
		}
		if m.Rows() == 0 {
			t.Fatal("accepted matrix with zero rows")
		}
		var sb strings.Builder
		if err := m.WriteTSV(&sb); err != nil {
			t.Fatalf("write after accept: %v", err)
		}
		back, err := ReadTSV(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("reread of own output failed: %v\noutput: %q", err, sb.String())
		}
		if !back.Equal(m) {
			t.Fatalf("round trip not value-exact:\nfirst read:\n%v\nreread:\n%v\nTSV: %q",
				m, back, sb.String())
		}
		if back.Hash() != m.Hash() {
			t.Fatalf("round trip changed content hash\nTSV: %q", sb.String())
		}
		enc := m.AppendCanonical(nil)
		dec, err := DecodeCanonical(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !dec.Equal(m) || HashCanonical(enc) != m.Hash() || dec.Hash() != m.Hash() {
			t.Fatalf("canonical round trip not exact:\n%v\ndecoded:\n%v", m, dec)
		}
	})
}

// sameBits reports whether a and b hold bit-identical cells, down to NaN
// payloads, which Equal ignores.
func sameBits(a, b *Matrix) bool {
	if len(a.data) != len(b.data) {
		return false
	}
	for k := range a.data {
		if math.Float64bits(a.data[k]) != math.Float64bits(b.data[k]) {
			return false
		}
	}
	return true
}

// FuzzDecodeCanonical feeds the decoder arbitrary bytes: it must never panic,
// never allocate more than a constant multiple of the input, and accept only
// canonical encodings — whatever it decodes re-encodes to the input exactly.
func FuzzDecodeCanonical(f *testing.F) {
	for _, m := range []*Matrix{
		FromRows([][]float64{{1, 2}, {3, math.NaN()}}),
		New(0, 3),
		New(2, 0),
		NewWithNames([]string{"", "gene with spaces"}, []string{"c"}),
	} {
		enc := m.AppendCanonical(nil)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Fuzz(func(t *testing.T, b []byte) {
		// The allocation counters are process-wide, and the fuzzing engine
		// allocates now and then too: only a bound broken on three calls
		// running is the decoder's.
		var m *Matrix
		var err error
		least := uint64(math.MaxUint64)
		for try := 0; try < 3 && least > 8*uint64(len(b))+16<<10; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err = DecodeCanonical(b)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 8*uint64(len(b))+16<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), least)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(m.AppendCanonical(nil), b) {
			t.Fatalf("decoded %v does not re-encode to its input %x", m, b)
		}
	})
}
