package matrix

import (
	"math"
	"strings"
	"testing"
)

func TestHashEqualMatricesAgree(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := a.Clone()
	if a.Hash() != b.Hash() {
		t.Fatal("clone hashes differently")
	}
	if len(a.Hash()) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(a.Hash()))
	}
}

func TestHashSensitivity(t *testing.T) {
	base := FromRows([][]float64{{1, 2}, {3, 4}})
	h0 := base.Hash()

	cell := base.Clone()
	cell.Set(1, 1, 4.0000001)
	if cell.Hash() == h0 {
		t.Error("cell change not reflected in hash")
	}

	name := base.Clone()
	name.SetRowName(0, "other")
	if name.Hash() == h0 {
		t.Error("row name change not reflected in hash")
	}

	col := base.Clone()
	col.SetColName(1, "other")
	if col.Hash() == h0 {
		t.Error("column name change not reflected in hash")
	}

	// Same cells, different shape (2x2 vs 1x4) must differ even with the
	// name lists emptied to the same strings.
	flat := FromRows([][]float64{{1, 2, 3, 4}})
	if flat.Hash() == FromRows([][]float64{{1, 2}, {3, 4}}).Hash() {
		t.Error("shape not reflected in hash")
	}
}

func TestHashNaNCanonical(t *testing.T) {
	a := FromRows([][]float64{{1, math.NaN()}})
	// A NaN with a different payload must hash identically.
	b := FromRows([][]float64{{1, math.Float64frombits(0x7ff8dead00000000)}})
	if a.Hash() != b.Hash() {
		t.Fatal("NaN payload leaked into the hash")
	}
	c := FromRows([][]float64{{1, 2}})
	if a.Hash() == c.Hash() {
		t.Fatal("NaN vs number hashed equal")
	}
}

func TestHashStableAcrossTSVRoundTrip(t *testing.T) {
	m := FromRows([][]float64{{1.5, -2.25, math.NaN()}, {0, 1e-9, 1e12}})
	m.SetRowName(0, "YAL001C")
	m.SetColName(2, "heat_t30")
	var sb strings.Builder
	if err := m.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != m.Hash() {
		t.Fatal("TSV round trip changed the content hash")
	}
}

// TestHashGolden pins the content address of fixed inputs to literal hex
// strings. Data-dir file names, result-cache keys and model-cache keys all
// derive from Hash, so a change here orphans every stored dataset and result.
func TestHashGolden(t *testing.T) {
	for _, c := range []struct {
		name, tsv string
		raw       string // as parsed, NaN cells included
		filled    string // after FillNaN
	}{
		{"header", "gene\tcold\theat\ng1\t1.5\t-2\ng2\t3\t4\n",
			"5d84ea4747078e65ceb2e62313b72f97f549f31ce34b2fd2b2e34b8d5d25f234",
			"5d84ea4747078e65ceb2e62313b72f97f549f31ce34b2fd2b2e34b8d5d25f234"},
		{"no header", "ORF1\t1\t2\t3\nORF2\t4\t5\t6\n",
			"1ccd84568a3c0590158210c3b4c750aef31f3d3e03c5aa6b091236967d0db0a9",
			"1ccd84568a3c0590158210c3b4c750aef31f3d3e03c5aa6b091236967d0db0a9"},
		{"NaN cells", "gene\ta\tb\tc\ng1\t1\tNA\t3\ng2\t-0\t1e-300\tnan\n",
			"677c4d6218231b75294ee42f3c8019cb77bb4c85b4b4b50d2353b0aacf819f45",
			"85a86216a8c94025913de6a3c93e01d4dfae21a1198b2b8364f71c231543b2d1"},
		{"empty name", "\t0.5\t2\nx\t1\t1\n",
			"d1f0cd3bc52e5ce1515b966caa43515ee28eb90ff4ccc588acb94a2db7cbc68a",
			"d1f0cd3bc52e5ce1515b966caa43515ee28eb90ff4ccc588acb94a2db7cbc68a"},
	} {
		m, err := ReadTSV(strings.NewReader(c.tsv))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := m.Hash(); got != c.raw {
			t.Errorf("%s: Hash %s, want %s", c.name, got, c.raw)
		}
		m.FillNaN()
		if got := m.Hash(); got != c.filled {
			t.Errorf("%s: Hash after FillNaN %s, want %s", c.name, got, c.filled)
		}
	}
}

// TestCanonicalEncoding checks that the encoding is the hash input, that it
// decodes back to an equal matrix, and that every shorter or longer variant
// of it is refused.
func TestCanonicalEncoding(t *testing.T) {
	m := FromRows([][]float64{{1.5, math.NaN(), -0.0}, {math.Inf(1), 1e-300, 7}})
	m.SetRowName(0, "")
	m.SetColName(2, "heat t30")
	enc := m.AppendCanonical([]byte("prefix"))[len("prefix"):]
	if len(enc) != m.canonicalSize() {
		t.Fatalf("encoding is %d bytes, canonicalSize says %d", len(enc), m.canonicalSize())
	}
	if HashCanonical(enc) != m.Hash() {
		t.Fatal("Hash is not the SHA-256 of the canonical encoding")
	}
	back, err := DecodeCanonical(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(m) || back.Hash() != m.Hash() {
		t.Fatalf("decode mismatch:\n%v\nvs\n%v", back, m)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeCanonical(enc[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(enc))
		}
	}
	if _, err := DecodeCanonical(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
	// A NaN in any but the canonical bit pattern is not a canonical encoding.
	odd := append([]byte(nil), enc...)
	cell := len(odd) - 8*(2*3-1) // cell (0,1), the NaN
	odd[cell] ^= 0x10
	if _, err := DecodeCanonical(odd); err == nil {
		t.Fatal("non-canonical NaN decoded")
	}
	// A shape the input cannot hold is refused before anything is allocated.
	huge := append([]byte(nil), enc...)
	for i := 0; i < 8; i++ {
		huge[i] = 0xff
	}
	if _, err := DecodeCanonical(huge); err == nil {
		t.Fatal("impossible shape decoded")
	}
}
