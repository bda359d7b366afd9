package mmio

// Frozen reference for the byte-slice parser. refRead is Read as it was
// before the in-place coordinate scanner: every data line read with
// ReadString, trimmed with strings.TrimSpace and split with
// strings.Fields, every index parsed with strconv.Atoi. Its one change
// since is the pre-allocation cap (entryCap), which keeps a declared
// nnz from sizing the entry slices, and the array loop's early exit
// once no column can hold another entry, which keeps a declared
// "0 <huge>" array from spinning without changing any result.
// FuzzReadParity holds Read and ReadLimited to it: the same success or
// failure, error text and COO. FuzzReadStructureParity holds
// ReadStructure to it the same way, values dropped.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// refReadLimited is ReadLimited over refRead.
func refReadLimited(r io.Reader, maxBytes int64) (*COO, error) {
	if maxBytes <= 0 {
		return refRead(r)
	}
	return refRead(&limitedReader{r: r, max: maxBytes})
}

func refRead(r io.Reader) (*COO, error) {
	size := knownSize(r)
	br := bufio.NewReaderSize(r, 1<<16)

	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("mmio: reading header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return nil, fmt.Errorf("mmio: not a MatrixMarket matrix header: %q", strings.TrimSpace(header))
	}
	format := fields[2]
	var field Field
	switch fields[3] {
	case "real":
		field = Real
	case "integer":
		field = Integer
	case "pattern":
		field = Pattern
	default:
		return nil, fmt.Errorf("mmio: unsupported field %q", fields[3])
	}
	var sym Symmetry
	switch fields[4] {
	case "general":
		sym = General
	case "symmetric":
		sym = Symmetric
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", fields[4])
	}

	line, err := refNextDataLine(br)
	if err != nil {
		return nil, fmt.Errorf("mmio: reading size line: %w", err)
	}

	switch format {
	case "coordinate":
		return refReadCoordinate(br, line, field, sym, size)
	case "array":
		if field == Pattern {
			return nil, fmt.Errorf("mmio: array format cannot be pattern")
		}
		return refReadArray(br, line, field, sym)
	default:
		return nil, fmt.Errorf("mmio: unsupported format %q", format)
	}
}

// refNextDataLine returns the next non-comment, non-blank line. A
// partial final line is accepted only at io.EOF (files without a
// trailing newline); any other error — e.g. ErrTooLarge from a limited
// reader — must not let a truncated token parse as a shorter valid one.
func refNextDataLine(br *bufio.Reader) (string, error) {
	for {
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return "", err
		}
		trimmed := strings.TrimSpace(line)
		if trimmed != "" && !strings.HasPrefix(trimmed, "%") {
			return trimmed, nil
		}
		if err != nil {
			return "", err
		}
	}
}

func refReadCoordinate(br *bufio.Reader, sizeLine string, field Field, sym Symmetry, size int64) (*COO, error) {
	var rows, cols, nnz int
	if _, err := fmt.Sscan(sizeLine, &rows, &cols, &nnz); err != nil {
		return nil, fmt.Errorf("mmio: bad size line %q: %w", sizeLine, err)
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("mmio: negative dimension in size line %q", sizeLine)
	}
	c := &COO{Rows: rows, Cols: cols, Field: field, Symmetry: sym}
	capHint := entryCap(nnz, sym, size)
	c.RowIdx = make([]int32, 0, capHint)
	c.ColIdx = make([]int32, 0, capHint)
	if field != Pattern {
		c.Vals = make([]float64, 0, capHint)
	}

	for k := 0; k < nnz; k++ {
		line, err := refNextDataLine(br)
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d of %d: %w", k+1, nnz, err)
		}
		toks := strings.Fields(line)
		wantToks := 3
		if field == Pattern {
			wantToks = 2
		}
		if len(toks) < wantToks {
			return nil, fmt.Errorf("mmio: entry %d: short line %q", k+1, line)
		}
		i, err := strconv.Atoi(toks[0])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d: bad row index %q", k+1, toks[0])
		}
		j, err := strconv.Atoi(toks[1])
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d: bad col index %q", k+1, toks[1])
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("mmio: entry %d: index (%d,%d) out of %dx%d", k+1, i, j, rows, cols)
		}
		var v float64
		if field != Pattern {
			v, err = strconv.ParseFloat(toks[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: entry %d: bad value %q", k+1, toks[2])
			}
		}
		refAppendEntry(c, int32(i-1), int32(j-1), v, field)
		if sym == Symmetric && i != j {
			refAppendEntry(c, int32(j-1), int32(i-1), v, field)
		}
	}
	return c, nil
}

func refReadArray(br *bufio.Reader, sizeLine string, field Field, sym Symmetry) (*COO, error) {
	var rows, cols int
	if _, err := fmt.Sscan(sizeLine, &rows, &cols); err != nil {
		return nil, fmt.Errorf("mmio: bad array size line %q: %w", sizeLine, err)
	}
	c := &COO{Rows: rows, Cols: cols, Field: field, Symmetry: sym}
	// Array files are column-major dense listings; keep the nonzeros.
	for j := 0; j < cols; j++ {
		iStart := 0
		if sym == Symmetric {
			iStart = j
		}
		if iStart >= rows {
			break // this and every later column is empty
		}
		for i := iStart; i < rows; i++ {
			line, err := refNextDataLine(br)
			if err != nil {
				return nil, fmt.Errorf("mmio: array entry (%d,%d): %w", i+1, j+1, err)
			}
			v, err := strconv.ParseFloat(strings.Fields(line)[0], 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: array entry (%d,%d): bad value %q", i+1, j+1, line)
			}
			if v == 0 {
				continue
			}
			refAppendEntry(c, int32(i), int32(j), v, field)
			if sym == Symmetric && i != j {
				refAppendEntry(c, int32(j), int32(i), v, field)
			}
		}
	}
	return c, nil
}

// refAppendEntry is appendEntry as it was, keyed on the field.
func refAppendEntry(c *COO, i, j int32, v float64, field Field) {
	c.RowIdx = append(c.RowIdx, i)
	c.ColIdx = append(c.ColIdx, j)
	if field != Pattern {
		c.Vals = append(c.Vals, v)
	}
}
