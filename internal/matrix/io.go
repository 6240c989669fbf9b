package matrix

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// ReadTSV parses a tab-separated expression matrix from r.
//
// The expected layout matches common microarray distributions (including the
// Tavazoie/Church yeast file): an optional header line whose first field
// labels the gene column followed by condition names, then one line per gene
// with the gene name in the first field and one numeric expression value per
// condition. Empty fields and the strings "NA", "NaN", "null" (any case)
// parse as NaN. Lines starting with '#' and blank lines are skipped.
//
// The parser works on the scanner's line bytes: cells go straight into the
// matrix's one backing slice, and names are copied out of the line, so no
// per-line string or field list is built and no name keeps its line alive.
func ReadTSV(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	var (
		colNames []string
		rowNames []string
		data     []float64
		cols     int // values per row, fixed by the first data row
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimRight(sc.Bytes(), "\r")
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if colNames == nil && rowNames == nil {
			// A one-field header names no condition, so the next content
			// line is still a header candidate.
			if names, ok := headerNames(line); ok {
				colNames = names
				continue
			}
		}
		name, rest, ok := bytes.Cut(line, tab)
		if !ok {
			return nil, fmt.Errorf("matrix: line %d: need a name and at least one value", lineNo)
		}
		n := 0
		for more := true; more; n++ {
			var field []byte
			field, rest, more = bytes.Cut(rest, tab)
			v, err := parseCell(field)
			if err != nil {
				return nil, fmt.Errorf("matrix: line %d field %d: %v", lineNo, n+2, err)
			}
			data = append(data, v)
		}
		if rowNames == nil {
			cols = n
		} else if n != cols {
			return nil, fmt.Errorf("matrix: line %d: %d values, want %d", lineNo, n, cols)
		}
		rowNames = append(rowNames, string(name))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("matrix: read: %v", err)
	}
	if len(rowNames) == 0 {
		return nil, fmt.Errorf("matrix: empty input")
	}
	if colNames != nil && len(colNames) != cols {
		return nil, fmt.Errorf("matrix: header has %d conditions but rows have %d", len(colNames), cols)
	}
	if colNames == nil {
		colNames = make([]string, cols)
		for j := range colNames {
			colNames[j] = "c" + strconv.Itoa(j)
		}
	}
	return &Matrix{rows: len(rowNames), cols: cols, data: data, rowNames: rowNames, colNames: colNames}, nil
}

var tab = []byte{'\t'}

// headerNames reports whether a first content line is a header — it is one
// unless it has a value field and every field after the first parses as a
// number — and copies its condition names, nil for a one-field header.
func headerNames(line []byte) (names []string, header bool) {
	_, rest, ok := bytes.Cut(line, tab)
	if !ok {
		return nil, true
	}
	for more := true; more; {
		var field []byte
		field, rest, more = bytes.Cut(rest, tab)
		if _, err := parseCell(field); err != nil {
			header = true
		}
		names = append(names, string(field))
	}
	return names, header
}

// parseCell parses one value field. Surrounding white space is ignored; an
// empty field and NA, NaN or null in any case of ASCII letters are missing
// values. ParseFloat sees the trimmed text, so its error names it exactly.
func parseCell(b []byte) (float64, error) {
	b = bytes.TrimSpace(b)
	if len(b) == 0 || asciiFold(b, "na") || asciiFold(b, "nan") || asciiFold(b, "null") {
		return math.NaN(), nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// asciiFold reports whether b equals the lower-case ASCII word w in any case.
func asciiFold(b []byte, w string) bool {
	if len(b) != len(w) {
		return false
	}
	for i := range b {
		if b[i]|0x20 != w[i] {
			return false
		}
	}
	return true
}

// ReadTSVFile reads a matrix from the named file via ReadTSV.
func ReadTSVFile(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTSV(f)
}

// WriteTSV writes the matrix in the format accepted by ReadTSV, including a
// header line.
func (m *Matrix) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("gene"); err != nil {
		return err
	}
	for j := 0; j < m.cols; j++ {
		bw.WriteByte('\t')
		bw.WriteString(m.colNames[j])
	}
	bw.WriteByte('\n')
	for i := 0; i < m.rows; i++ {
		bw.WriteString(m.rowNames[i])
		for j := 0; j < m.cols; j++ {
			bw.WriteByte('\t')
			v := m.data[i*m.cols+j]
			if math.IsNaN(v) {
				bw.WriteString("NA")
			} else {
				bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteTSVFile writes the matrix to the named file via WriteTSV.
func (m *Matrix) WriteTSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteTSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// HasNaN reports whether any cell is NaN.
func (m *Matrix) HasNaN() bool {
	for _, v := range m.data {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// FillNaN replaces every NaN cell with the mean of the non-NaN values of its
// row (or 0 for an all-NaN row) and returns the number of cells replaced.
// Microarray files routinely contain missing values; the miners require a
// complete matrix.
func (m *Matrix) FillNaN() int {
	replaced := 0
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		sum, n := 0.0, 0
		for _, v := range row {
			if !math.IsNaN(v) {
				sum += v
				n++
			}
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		for j, v := range row {
			if math.IsNaN(v) {
				row[j] = mean
				replaced++
			}
		}
	}
	return replaced
}
