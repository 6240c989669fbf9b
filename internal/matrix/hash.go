package matrix

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"slices"
)

// canonicalNaN is the bit pattern every NaN cell hashes as, so a NaN's
// payload never influences the content address.
const canonicalNaN = 0x7ff8000000000001

// The canonical encoding of a matrix is the byte stream its content address
// digests. Every integer is a little-endian uint64:
//
//	rows, cols
//	rows × (length, bytes)   row names, in order
//	cols × (length, bytes)   column names, in order
//	rows·cols × IEEE-754 bits cells, row-major; every NaN as canonicalNaN
//
// Two matrices encode to the same bytes exactly when Matrix.Equal holds, so
// the encoding doubles as a lossless storage and wire format: the service
// persists datasets in it and replicates them to workers with it, and a
// reader verifies what it got by hashing the bytes before decoding them.

// canonicalSize returns the length of m's canonical encoding.
func (m *Matrix) canonicalSize() int {
	n := 16 + 8*(m.rows+m.cols+len(m.data))
	for _, s := range m.rowNames {
		n += len(s)
	}
	for _, s := range m.colNames {
		n += len(s)
	}
	return n
}

// AppendCanonical appends m's canonical encoding to dst and returns the
// extended slice, growing dst at most once.
func (m *Matrix) AppendCanonical(dst []byte) []byte {
	dst = slices.Grow(dst, m.canonicalSize())
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(m.rows))
	dst = le.AppendUint64(dst, uint64(m.cols))
	for _, s := range m.rowNames {
		dst = append(le.AppendUint64(dst, uint64(len(s))), s...)
	}
	for _, s := range m.colNames {
		dst = append(le.AppendUint64(dst, uint64(len(s))), s...)
	}
	for _, v := range m.data {
		b := math.Float64bits(v)
		if v != v {
			b = canonicalNaN
		}
		dst = le.AppendUint64(dst, b)
	}
	return dst
}

// errCanonical is the error of every encoding DecodeCanonical refuses.
var errCanonical = errors.New("matrix: malformed canonical encoding")

// DecodeCanonical rebuilds the matrix a canonical encoding describes. It
// accepts exactly the byte streams AppendCanonical produces: a truncated or
// over-long input, a shape the input is too short to hold, or a NaN cell in
// any but the canonical bit pattern is an error, and the decoder checks the
// shape against the input length before it allocates, so it never allocates
// more than a small constant multiple of len(b).
func DecodeCanonical(b []byte) (*Matrix, error) {
	le := binary.LittleEndian
	if len(b) < 16 {
		return nil, errCanonical
	}
	rows, cols := le.Uint64(b), le.Uint64(b[8:])
	// Every name costs at least its 8-byte length and every cell 8 bytes.
	words := uint64(len(b)-16) / 8
	if rows > words || cols > words || (cols > 0 && rows > words/cols) || rows+cols+rows*cols > words {
		return nil, errCanonical
	}
	off := 16
	names := func(n uint64) ([]string, bool) {
		out := make([]string, n)
		for i := range out {
			if len(b)-off < 8 {
				return nil, false
			}
			l := le.Uint64(b[off:])
			off += 8
			if l > uint64(len(b)-off) {
				return nil, false
			}
			out[i] = string(b[off : off+int(l)])
			off += int(l)
		}
		return out, true
	}
	rowNames, ok := names(rows)
	if !ok {
		return nil, errCanonical
	}
	colNames, ok := names(cols)
	if !ok || uint64(len(b)-off) != 8*rows*cols {
		return nil, errCanonical
	}
	data := make([]float64, rows*cols)
	for k := range data {
		bits := le.Uint64(b[off+8*k:])
		v := math.Float64frombits(bits)
		if v != v && bits != canonicalNaN {
			return nil, errCanonical
		}
		data[k] = v
	}
	return &Matrix{rows: int(rows), cols: int(cols), data: data, rowNames: rowNames, colNames: colNames}, nil
}

// HashCanonical returns the content address of a canonical encoding: the
// hex-encoded SHA-256 of the bytes, equal to Hash of the matrix they encode.
func HashCanonical(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Hash returns a content address of the matrix: a hex-encoded SHA-256 over
// its canonical encoding (shape, row and column names, and the raw IEEE-754
// bits of every cell). Two matrices hash equal exactly when Matrix.Equal
// holds (NaN cells included), independent of how the matrix was produced —
// parsed from TSV, built in memory, decoded, or round-tripped through
// WriteTSV. The service layer uses it to content-address uploaded datasets
// and to derive result-cache keys.
func (m *Matrix) Hash() string {
	return HashCanonical(m.AppendCanonical(nil))
}
