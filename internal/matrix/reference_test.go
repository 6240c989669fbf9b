package matrix

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// referenceReadTSV is the line-based TSV parser ReadTSV replaced, kept as the
// specification the byte-scanning parser is fuzzed against: it splits every
// line into a []string and parses each field on its own. Both must accept
// the same inputs with the same names and cell bits, and reject the rest
// with the same error text.
func referenceReadTSV(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	var colNames []string
	var rowNames []string
	var rows [][]float64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r\n")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if colNames == nil && rows == nil {
			if referenceIsHeader(fields) {
				colNames = append([]string(nil), fields[1:]...)
				continue
			}
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("matrix: line %d: need a name and at least one value", lineNo)
		}
		vals := make([]float64, len(fields)-1)
		for k, f := range fields[1:] {
			v, err := referenceParseCell(f)
			if err != nil {
				return nil, fmt.Errorf("matrix: line %d field %d: %v", lineNo, k+2, err)
			}
			vals[k] = v
		}
		if len(rows) > 0 && len(vals) != len(rows[0]) {
			return nil, fmt.Errorf("matrix: line %d: %d values, want %d", lineNo, len(vals), len(rows[0]))
		}
		rowNames = append(rowNames, fields[0])
		rows = append(rows, vals)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("matrix: read: %v", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("matrix: empty input")
	}
	if colNames != nil && len(colNames) != len(rows[0]) {
		return nil, fmt.Errorf("matrix: header has %d conditions but rows have %d", len(colNames), len(rows[0]))
	}
	m := FromRows(rows)
	copy(m.rowNames, rowNames)
	if colNames != nil {
		copy(m.colNames, colNames)
	}
	return m, nil
}

func referenceIsHeader(fields []string) bool {
	if len(fields) < 2 {
		return true
	}
	for _, f := range fields[1:] {
		if _, err := referenceParseCell(f); err != nil {
			return true
		}
	}
	return false
}

func referenceParseCell(s string) (float64, error) {
	s = strings.TrimSpace(s)
	switch strings.ToLower(s) {
	case "", "na", "nan", "null":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
