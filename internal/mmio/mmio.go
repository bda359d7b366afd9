// Package mmio reads and writes sparse matrices in the NIST Matrix
// Market exchange format (.mtx), the format the University of Florida
// collection (the paper's Table II datasets) is distributed in.
//
// Supported headers:
//
//	%%MatrixMarket matrix coordinate real general
//	%%MatrixMarket matrix coordinate real symmetric
//	%%MatrixMarket matrix coordinate integer general|symmetric
//	%%MatrixMarket matrix coordinate pattern general|symmetric
//	%%MatrixMarket matrix array real general
//
// Symmetric matrices are expanded on read (both (i,j) and (j,i) entries
// are materialized, diagonal entries once), which matches how the
// paper's workloads consume them.
package mmio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"strconv"
	"strings"
)

// ErrTooLarge is returned by ReadLimited when the input exceeds the
// byte limit. Callers serving untrusted uploads should test for it
// with errors.Is and map it to a "payload too large" response.
var ErrTooLarge = errors.New("mmio: input exceeds size limit")

// limitedReader yields ErrTooLarge once more than max bytes have been
// consumed, unlike io.LimitReader whose silent EOF would surface as a
// confusing parse error mid-entry.
type limitedReader struct {
	r   io.Reader
	max int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.max <= 0 {
		// The budget is spent: distinguish "stream ended exactly at
		// the limit" (EOF) from "more data remains" (ErrTooLarge) by
		// probing one byte.
		var one [1]byte
		for {
			m, err := l.r.Read(one[:])
			if m > 0 {
				return 0, ErrTooLarge
			}
			if err != nil {
				return 0, err
			}
		}
	}
	if int64(len(p)) > l.max {
		p = p[:l.max]
	}
	n, err := l.r.Read(p)
	l.max -= int64(n)
	return n, err
}

// ReadLimited parses a Matrix Market stream, failing with ErrTooLarge
// if the stream holds more than maxBytes bytes. maxBytes <= 0 means no
// limit. Untrusted input must come through a limited entry point, where
// an unbounded Read would let one request exhaust memory.
func ReadLimited(r io.Reader, maxBytes int64) (*COO, error) {
	return read(limit(r, maxBytes), true)
}

// ReadStructure is ReadLimited for callers that need only the sparsity
// structure: every value is validated — the same inputs are accepted
// and rejected, with the same errors — but none is kept, so the result
// has nil Vals whatever its Field. Coordinate values of plain decimal
// shape are checked without conversion. Array files still convert
// their values, because their zeros decide the structure.
func ReadStructure(r io.Reader, maxBytes int64) (*COO, error) {
	return read(limit(r, maxBytes), false)
}

// limit wraps r in a limitedReader unless maxBytes <= 0 (no limit).
func limit(r io.Reader, maxBytes int64) io.Reader {
	if maxBytes <= 0 {
		return r
	}
	return &limitedReader{r: r, max: maxBytes}
}

// minEntryBytes is the fewest bytes a coordinate entry occupies ("1 1"
// and its newline), so b bytes of input hold at most b/minEntryBytes
// entries whatever the size line declares.
const minEntryBytes = 4

// unknownSizeEntryCap bounds the entry pre-allocation when the input
// size is unknown; bigger matrices grow by append.
const unknownSizeEntryCap = 1 << 16

// knownSize returns how many bytes r holds when it can tell
// (bytes.Reader, strings.Reader, also under ReadLimited), else 0.
func knownSize(r io.Reader) int64 {
	if l, ok := r.(*limitedReader); ok {
		r = l.r
	}
	if s, ok := r.(interface{ Len() int }); ok {
		return int64(s.Len())
	}
	return 0
}

// entryCap is the capacity to pre-allocate for nnz declared entries
// (twice that for symmetric expansion) from input of size bytes (0 when
// unknown). A header is untrusted: a 70-byte body may declare 10^9
// entries, so the cap is what the bytes can hold, never nnz itself.
func entryCap(nnz int, sym Symmetry, size int64) int {
	limit := int64(unknownSizeEntryCap)
	if size > 0 {
		limit = size / minEntryBytes
	}
	n := min(int64(nnz), limit)
	if sym == Symmetric {
		n *= 2 // n <= MaxInt64/4: no overflow
	}
	return int(n)
}

// Field describes the value type of a Matrix Market file.
type Field int

// Field values.
const (
	Real Field = iota
	Integer
	Pattern
)

func (f Field) String() string {
	switch f {
	case Real:
		return "real"
	case Integer:
		return "integer"
	case Pattern:
		return "pattern"
	}
	return "unknown"
}

// Symmetry describes the storage symmetry of a Matrix Market file.
type Symmetry int

// Symmetry values.
const (
	General Symmetry = iota
	Symmetric
)

func (s Symmetry) String() string {
	if s == Symmetric {
		return "symmetric"
	}
	return "general"
}

// COO is a sparse matrix in coordinate (triplet) form as read from a
// Matrix Market file, with 0-based indices and symmetric entries
// already expanded.
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Vals       []float64 // nil for pattern matrices and from ReadStructure
	Field      Field
	Symmetry   Symmetry // symmetry as declared in the file (pre-expansion)
}

// NNZ returns the number of stored entries after symmetric expansion.
func (c *COO) NNZ() int { return len(c.RowIdx) }

// Read parses a Matrix Market stream.
func Read(r io.Reader) (*COO, error) { return read(r, true) }

// read parses a Matrix Market stream, storing the entry values only
// when keepVals is set.
func read(r io.Reader, keepVals bool) (*COO, error) {
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

	lines := &lineReader{br: br}
	line, err := lines.next()
	if err != nil {
		return nil, fmt.Errorf("mmio: reading size line: %w", err)
	}
	sizeLine := string(line)

	switch format {
	case "coordinate":
		return readCoordinate(lines, sizeLine, field, sym, size, keepVals)
	case "array":
		if field == Pattern {
			return nil, fmt.Errorf("mmio: array format cannot be pattern")
		}
		return readArray(lines, sizeLine, field, sym, keepVals)
	default:
		return nil, fmt.Errorf("mmio: unsupported format %q", format)
	}
}

// lineReader yields the data lines of a Matrix Market body — comments
// and blank lines skipped, surrounding white space trimmed as
// strings.TrimSpace does — as slices of the bufio.Reader's buffer, so
// reading a line allocates nothing. A line stays valid until the next
// call.
type lineReader struct {
	br   *bufio.Reader
	long []byte // reassembles lines longer than br's buffer
}

// next returns the next data line. A partial final line is accepted
// only at io.EOF (files without a trailing newline); any other error —
// e.g. ErrTooLarge from a limited reader — must not let a truncated
// token parse as a shorter valid one.
func (lr *lineReader) next() ([]byte, error) {
	for {
		line, err := lr.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			lr.long = append(lr.long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = lr.br.ReadSlice('\n')
				lr.long = append(lr.long, line...)
			}
			line = lr.long
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 && trimmed[0] != '%' {
			return trimmed, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func readCoordinate(lines *lineReader, sizeLine string, field Field, sym Symmetry, size int64, keepVals bool) (*COO, error) {
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
	keep := keepVals && field != Pattern
	if keep {
		c.Vals = make([]float64, 0, capHint)
	}

	for k := 0; k < nnz; k++ {
		if k += scanRun(lines.br, c, nnz-k, keepVals); k == nnz {
			break
		}
		line, err := lines.next()
		if err != nil {
			return nil, fmt.Errorf("mmio: entry %d of %d: %w", k+1, nnz, err)
		}
		i, j, v, ok := scanEntry(line, field != Pattern, keepVals)
		if !ok || i < 1 || i > rows || j < 1 || j > cols {
			if i, j, v, err = parseEntry(string(line), k, field, rows, cols); err != nil {
				return nil, err
			}
		}
		appendEntry(c, int32(i-1), int32(j-1), v, keep)
		if sym == Symmetric && i != j {
			appendEntry(c, int32(j-1), int32(i-1), v, keep)
		}
	}
	return c, nil
}

// scanRun appends to c, straight from the bytes br already holds, the
// entries of the complete lines at the front of its buffer that have
// the plain shape "row SP col [SP value] LF", and returns how many it
// appended, at most max. The indexes are unsigned decimals of at most
// 18 digits inside c's bounds. Unless keepVals is set the value must
// be a plain decimal, checked without conversion; otherwise it is an
// ASCII token converted as scanEntry converts it. The run stops before
// the first line of any other shape and before a line the buffer holds
// only in part. lineReader.next and scanEntry read that line, so every
// error, every line that strings.Fields would split differently, and
// every partial final line keep the path they have always taken.
func scanRun(br *bufio.Reader, c *COO, max int, keepVals bool) int {
	buf, _ := br.Peek(br.Buffered())
	valued := c.Field != Pattern
	keep := keepVals && valued
	colEnd := byte('\n')
	if valued {
		colEnd = ' '
	}
	pos, n := 0, 0
	for ; n < max; n++ {
		i, p := runIndex(buf, pos, ' ', c.Rows)
		if p == 0 {
			break
		}
		j, p := runIndex(buf, p, colEnd, c.Cols)
		if p == 0 {
			break
		}
		var v float64
		if valued {
			if p, v = runValue(buf, p, keepVals); p == 0 {
				break
			}
		}
		appendEntry(c, int32(i-1), int32(j-1), v, keep)
		if c.Symmetry == Symmetric && i != j {
			appendEntry(c, int32(j-1), int32(i-1), v, keep)
		}
		pos = p
	}
	br.Discard(pos) // pos <= Buffered: cannot fail
	return n
}

// runIndex parses the index at buf[p:]: 1 to 18 digits, a value in
// [1, max], then the byte end. It returns the index and the position
// after end, or q == 0 when buf[p:] does not start that way.
func runIndex(buf []byte, p int, end byte, max int) (n, q int) {
	for q = p; q < len(buf) && buf[q]-'0' < 10; q++ {
		n = n*10 + int(buf[q]-'0')
	}
	if q == p || q-p > 18 || q == len(buf) || buf[q] != end || n < 1 || n > max {
		return 0, 0
	}
	return n, q + 1
}

// runValue parses the value token at buf[p:], ended by LF. It returns
// the position after the LF and, when keepVals is set, the value; q ==
// 0 when the token is not plain or not ended by LF.
func runValue(buf []byte, p int, keepVals bool) (q int, v float64) {
	b := buf[p:]
	if !keepVals {
		k := plainDecimalLen(b)
		if k == 0 || k == len(b) || b[k] != '\n' {
			return 0, 0
		}
		return p + k + 1, 0
	}
	tok, ok := asciiToken(b)
	if k := len(tok); !ok || k == 0 || k == len(b) || b[k] != '\n' {
		return 0, 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, 0
	}
	return p + len(tok) + 1, v
}

// scanEntry parses a coordinate entry in place when it has the plain
// shape "row col [value]": unsigned decimal indexes of at most 18
// digits (so they cannot overflow) and ASCII-only tokens and
// separators. Anything else — a sign, a longer index, a byte >= 0x80
// (Unicode white space separates tokens too), a short line, a bad
// value — reports !ok and goes to parseEntry, which accepts or rejects
// it exactly as strings.Fields and strconv.Atoi always have. Unless
// keepVals is set, a value of plain decimal shape is validated in one
// pass without conversion and v is 0; only the values plainDecimal
// rejects are tokenized and converted.
func scanEntry(line []byte, valued, keepVals bool) (i, j int, v float64, ok bool) {
	i, rest, ok := scanIndex(line)
	if !ok || len(rest) == 0 {
		return 0, 0, 0, false
	}
	j, rest, ok = scanIndex(rest)
	if !ok || !valued {
		return i, j, 0, ok
	}
	if !keepVals && plainDecimal(rest) {
		return i, j, 0, true
	}
	tok, ok := asciiToken(rest)
	if !ok || len(tok) == 0 {
		return 0, 0, 0, false
	}
	// string(tok) does not escape ParseFloat, so for tokens of up to 32
	// bytes the conversion uses a stack buffer.
	v, err := strconv.ParseFloat(string(tok), 64)
	return i, j, v, err == nil
}

// maxPlainIntDigits bounds the integer digits plainDecimal accepts:
// with a two-digit exponent the value stays below 10^299, so a plain
// decimal can never overflow a float64 and ParseFloat would accept it.
const maxPlainIntDigits = 200

// plainDecimal reports whether b starts with a token, ended by an
// ASCII separator or by the end of b, of the shape
// [+-]digits[.digits][(e|E)[+-]d[d]] with at least one mantissa digit
// and at most maxPlainIntDigits integer digits — a subset of what
// strconv.ParseFloat accepts without error. Every other token (inf,
// nan, hex, underscores, longer exponents or integer parts, non-ASCII
// bytes) is for ParseFloat to judge.
func plainDecimal(b []byte) bool {
	k := plainDecimalLen(b)
	return k > 0 && (k == len(b) || asciiSpace[b[k]])
}

// plainDecimalLen returns the length of the plain decimal token at the
// start of b, or 0 when b does not start with one; the token's end is
// for the caller to check.
func plainDecimalLen(b []byte) int {
	k := 0
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		k++
	}
	intStart := k
	for k < len(b) && b[k]-'0' < 10 {
		k++
	}
	digits := k - intStart
	if digits > maxPlainIntDigits {
		return 0
	}
	if k < len(b) && b[k] == '.' {
		k++
		fracStart := k
		k = skipDigits(b, k)
		digits += k - fracStart
	}
	if digits == 0 {
		return 0
	}
	if k < len(b) && (b[k] == 'e' || b[k] == 'E') {
		k++
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		expStart := k
		for k < len(b) && b[k]-'0' < 10 {
			k++
		}
		if n := k - expStart; n < 1 || n > 2 {
			return 0
		}
	}
	return k
}

// skipDigits returns the index of the first byte of b at or after k
// that is not an ASCII digit. It tests eight bytes at a time, so the
// long fractions writers print ("%.17g") cost a few word tests rather
// than a branch per digit.
func skipDigits(b []byte, k int) int {
	for ; k+8 <= len(b); k += 8 {
		if m := nonDigits(binary.LittleEndian.Uint64(b[k:])); m != 0 {
			return k + bits.TrailingZeros64(m)>>3
		}
	}
	for k < len(b) && b[k]-'0' < 10 {
		k++
	}
	return k
}

// nonDigits returns the 8 bytes of x, first byte lowest, with the high
// bit set in each that is not an ASCII digit and clear in each that
// is. A digit's high nibble is 3 and its low nibble plus 6 stays below
// 16; no step carries from one byte into the next.
func nonDigits(x uint64) uint64 {
	const lo, hi, low7 = 0x0f0f0f0f0f0f0f0f, 0xf0f0f0f0f0f0f0f0, 0x7f7f7f7f7f7f7f7f
	m := (x&hi ^ 0x3030303030303030) | ((x&lo + 0x0606060606060606) & 0x1010101010101010)
	return ((m&low7 + low7) | m) &^ low7
}

// scanIndex parses the unsigned decimal index at the start of b and
// returns the input after it and its trailing separators.
func scanIndex(b []byte) (n int, rest []byte, ok bool) {
	k := 0
	for ; k < len(b) && '0' <= b[k] && b[k] <= '9'; k++ {
		n = n*10 + int(b[k]-'0')
	}
	if k == 0 || k > 18 || (k < len(b) && !asciiSpace[b[k]]) {
		return 0, nil, false
	}
	for k < len(b) && asciiSpace[b[k]] {
		k++
	}
	return n, b[k:], true
}

// asciiToken returns the token at the start of b, up to the first
// ASCII separator; !ok if it holds a non-ASCII byte.
func asciiToken(b []byte) (tok []byte, ok bool) {
	for k, c := range b {
		if asciiSpace[c] {
			return b[:k], true
		}
		if c >= 0x80 {
			return nil, false
		}
	}
	return b, true
}

// asciiSpace marks the ASCII bytes strings.Fields separates on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseEntry is the general entry parser, and the source of every
// entry error: 1-based indexes, bounds-checked before the value.
func parseEntry(line string, k int, field Field, rows, cols int) (i, j int, v float64, err error) {
	toks := strings.Fields(line)
	wantToks := 3
	if field == Pattern {
		wantToks = 2
	}
	if len(toks) < wantToks {
		return 0, 0, 0, fmt.Errorf("mmio: entry %d: short line %q", k+1, line)
	}
	i, err = strconv.Atoi(toks[0])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("mmio: entry %d: bad row index %q", k+1, toks[0])
	}
	j, err = strconv.Atoi(toks[1])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("mmio: entry %d: bad col index %q", k+1, toks[1])
	}
	if i < 1 || i > rows || j < 1 || j > cols {
		return 0, 0, 0, fmt.Errorf("mmio: entry %d: index (%d,%d) out of %dx%d", k+1, i, j, rows, cols)
	}
	if field != Pattern {
		v, err = strconv.ParseFloat(toks[2], 64)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("mmio: entry %d: bad value %q", k+1, toks[2])
		}
	}
	return i, j, v, nil
}

// appendEntry stores one entry, and its value if keep is set.
func appendEntry(c *COO, i, j int32, v float64, keep bool) {
	c.RowIdx = append(c.RowIdx, i)
	c.ColIdx = append(c.ColIdx, j)
	if keep {
		c.Vals = append(c.Vals, v)
	}
}

func readArray(lines *lineReader, sizeLine string, field Field, sym Symmetry, keepVals bool) (*COO, error) {
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
			line, err := lines.next()
			if err != nil {
				return nil, fmt.Errorf("mmio: array entry (%d,%d): %w", i+1, j+1, err)
			}
			v, err := strconv.ParseFloat(strings.Fields(string(line))[0], 64)
			if err != nil {
				return nil, fmt.Errorf("mmio: array entry (%d,%d): bad value %q", i+1, j+1, line)
			}
			if v == 0 {
				continue
			}
			appendEntry(c, int32(i), int32(j), v, keepVals)
			if sym == Symmetric && i != j {
				appendEntry(c, int32(j), int32(i), v, keepVals)
			}
		}
	}
	return c, nil
}

// ReadFile reads a Matrix Market file from disk.
func ReadFile(path string) (*COO, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write emits c in coordinate format with 1-based indices. Symmetry is
// not re-folded: the file is written as "general" with every stored
// entry, which round-trips exactly through Read.
func Write(w io.Writer, c *COO) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	field := c.Field
	if field == Integer {
		field = Real // values are stored as float64; emit as real
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate %s general\n", field); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", c.Rows, c.Cols, c.NNZ()); err != nil {
		return err
	}
	for k := range c.RowIdx {
		var err error
		if field == Pattern {
			_, err = fmt.Fprintf(bw, "%d %d\n", c.RowIdx[k]+1, c.ColIdx[k]+1)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d %.17g\n", c.RowIdx[k]+1, c.ColIdx[k]+1, c.Vals[k])
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes c to path in coordinate format.
func WriteFile(path string, c *COO) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
