package matrix_test

import (
	"bytes"
	"testing"

	"regcluster/internal/matrix"
	"regcluster/internal/synthetic"
)

// BenchmarkReadTSV parses the upload bytes of one Figure 7 matrix (600 genes
// × 30 conditions, 30 embedded clusters), the body every cold mining job
// sends.
func BenchmarkReadTSV(b *testing.B) {
	cfg := synthetic.DefaultConfig()
	cfg.Genes, cfg.Seed = 600, 1
	m, _, err := synthetic.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteTSV(&buf); err != nil {
		b.Fatal(err)
	}
	tsv := buf.Bytes()
	b.SetBytes(int64(len(tsv)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.ReadTSV(bytes.NewReader(tsv)); err != nil {
			b.Fatal(err)
		}
	}
}
