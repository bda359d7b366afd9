package mmio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestReadCoordinateRealGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 1.5
2 3 -2.0
3 4 7
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 3 || c.Cols != 4 || c.NNZ() != 3 {
		t.Fatalf("dims = %dx%d nnz %d", c.Rows, c.Cols, c.NNZ())
	}
	if c.RowIdx[0] != 0 || c.ColIdx[0] != 0 || c.Vals[0] != 1.5 {
		t.Fatalf("entry 0 = (%d,%d,%v)", c.RowIdx[0], c.ColIdx[0], c.Vals[0])
	}
	if c.RowIdx[1] != 1 || c.ColIdx[1] != 2 || c.Vals[1] != -2 {
		t.Fatalf("entry 1 = (%d,%d,%v)", c.RowIdx[1], c.ColIdx[1], c.Vals[1])
	}
	if c.Field != Real || c.Symmetry != General {
		t.Fatalf("kind = %v/%v", c.Field, c.Symmetry)
	}
}

func TestReadSymmetricExpansion(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 5
2 1 1
3 2 2
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// 2 off-diagonal entries expand to 4, diagonal stays 1.
	if c.NNZ() != 5 {
		t.Fatalf("nnz after expansion = %d, want 5", c.NNZ())
	}
	// Check the mirrored (1,2) entry exists with value 1.
	found := false
	for k := range c.RowIdx {
		if c.RowIdx[k] == 0 && c.ColIdx[k] == 1 && c.Vals[k] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("mirrored entry (0,1)=1 not found")
	}
}

func TestReadPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern symmetric
2 2 2
1 1
2 1
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", c.NNZ())
	}
	if len(c.Vals) != 0 {
		t.Fatalf("pattern matrix has %d values", len(c.Vals))
	}
}

func TestReadInteger(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate integer general
2 2 1
2 2 42
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Vals[0] != 42 {
		t.Fatalf("value = %v", c.Vals[0])
	}
}

func TestReadArrayReal(t *testing.T) {
	src := `%%MatrixMarket matrix array real general
2 2
1.0
0.0
3.0
4.0
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Column-major: (1,1)=1, (2,1)=0 skipped, (1,2)=3, (2,2)=4.
	if c.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", c.NNZ())
	}
	if c.RowIdx[1] != 0 || c.ColIdx[1] != 1 || c.Vals[1] != 3 {
		t.Fatalf("entry 1 = (%d,%d,%v)", c.RowIdx[1], c.ColIdx[1], c.Vals[1])
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"bad header", "hello\n1 1 1\n"},
		{"bad object", "%%MatrixMarket vector coordinate real general\n1 1 1\n"},
		{"bad field", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n"},
		{"bad symmetry", "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n"},
		{"bad format", "%%MatrixMarket matrix banana real general\n1 1 1\n"},
		{"bad size", "%%MatrixMarket matrix coordinate real general\nx y z\n"},
		{"row out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"},
		{"col out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 3 1.0\n"},
		{"zero index", "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n"},
		{"truncated", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"},
		{"short line", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n"},
		{"bad value", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zzz\n"},
		{"pattern array", "%%MatrixMarket matrix array pattern general\n1 1\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error, got none", c.name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	orig := &COO{
		Rows: 3, Cols: 3,
		RowIdx: []int32{0, 1, 2, 2},
		ColIdx: []int32{1, 0, 2, 0},
		Vals:   []float64{0.25, -3.75, 1e-12, 42},
		Field:  Real,
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != orig.Rows || got.Cols != orig.Cols || got.NNZ() != orig.NNZ() {
		t.Fatalf("dims mismatch: %dx%d/%d", got.Rows, got.Cols, got.NNZ())
	}
	for k := range orig.RowIdx {
		if got.RowIdx[k] != orig.RowIdx[k] || got.ColIdx[k] != orig.ColIdx[k] || got.Vals[k] != orig.Vals[k] {
			t.Fatalf("entry %d mismatch: (%d,%d,%v)", k, got.RowIdx[k], got.ColIdx[k], got.Vals[k])
		}
	}
}

func TestRoundTripPattern(t *testing.T) {
	orig := &COO{
		Rows: 2, Cols: 5,
		RowIdx: []int32{0, 1},
		ColIdx: []int32{4, 3},
		Field:  Pattern,
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 2 || len(got.Vals) != 0 {
		t.Fatalf("pattern round trip: nnz=%d vals=%d", got.NNZ(), len(got.Vals))
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	orig := &COO{
		Rows: 2, Cols: 2,
		RowIdx: []int32{0, 1},
		ColIdx: []int32{1, 0},
		Vals:   []float64{1, 2},
		Field:  Real,
	}
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 2 {
		t.Fatalf("nnz = %d", got.NNZ())
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.mtx")); !os.IsNotExist(err) {
		t.Fatalf("missing file error = %v", err)
	}
}

func TestNoTrailingNewlineAtEOF(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 3.5"
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Vals[0] != 3.5 {
		t.Fatalf("value = %v", c.Vals[0])
	}
}

func TestHeaderCaseInsensitive(t *testing.T) {
	src := "%%MatrixMarket MATRIX Coordinate REAL General\n1 1 1\n1 1 2\n"
	if _, err := Read(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
}

func TestReadLimited(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 2.5\n"

	// Under and exactly at the limit: parses normally.
	for _, limit := range []int64{int64(len(src)), int64(len(src)) + 100, 0, -1} {
		c, err := ReadLimited(strings.NewReader(src), limit)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if c.NNZ() != 2 {
			t.Fatalf("limit %d: nnz = %d", limit, c.NNZ())
		}
	}

	// One byte over the limit: rejected with ErrTooLarge.
	if _, err := ReadLimited(strings.NewReader(src), int64(len(src))-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize error = %v, want ErrTooLarge", err)
	}
	if _, err := ReadLimited(strings.NewReader(src), 10); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("tiny limit error = %v, want ErrTooLarge", err)
	}
}

func TestReadLimitedNoTrailingNewline(t *testing.T) {
	// A stream ending exactly at the limit without a trailing newline
	// must parse (EOF, not ErrTooLarge).
	src := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 3.5"
	c, err := ReadLimited(strings.NewReader(src), int64(len(src)))
	if err != nil {
		t.Fatal(err)
	}
	if c.Vals[0] != 3.5 {
		t.Fatalf("value = %v", c.Vals[0])
	}
}

// lenHidden hides a reader's Len method, so the parser cannot tell the
// body size.
type lenHidden struct{ r io.Reader }

func (h lenHidden) Read(p []byte) (int, error) { return h.r.Read(p) }

// TestHugeDeclaredNNZBoundedAllocation is the regression test for
// sizing the entry slices from an untrusted header: a 70-byte body
// declaring 10^8 entries used to allocate 3 GiB before reading the
// first one, 4·10^9 entries killed the process, and a symmetric 2^62
// overflowed 2*nnz into a makeslice panic. The pre-allocation is now
// what the body can hold when the reader knows its length, and a fixed
// 2^16 entries when it does not; the error is the same truncation.
func TestHugeDeclaredNNZBoundedAllocation(t *testing.T) {
	const limit = 1 << 20
	cases := []struct {
		name, body, err string
	}{
		{"1e8", "%%MatrixMarket matrix coordinate real general\n10 10 100000000\n1 1 1\n",
			"mmio: entry 2 of 100000000: EOF"},
		{"4e9", "%%MatrixMarket matrix coordinate real general\n10 10 4000000000\n1 1 1\n",
			"mmio: entry 2 of 4000000000: EOF"},
		{"2^62 symmetric", "%%MatrixMarket matrix coordinate real symmetric\n10 10 4611686018427387904\n1 1 1\n",
			"mmio: entry 2 of 4611686018427387904: EOF"},
	}
	readers := []struct {
		name     string
		wrap     func(string) io.Reader
		maxAlloc uint64
	}{
		// 2^16 entries of 16 bytes, twice over when symmetric: 2 MiB,
		// plus the 64 KiB line buffer.
		{"unknown length", func(s string) io.Reader { return lenHidden{strings.NewReader(s)} }, 3 << 20},
		{"known length", func(s string) io.Reader { return strings.NewReader(s) }, 256 << 10},
	}
	for _, c := range cases {
		for _, rd := range readers {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadLimited(rd.wrap(c.body), limit)
			runtime.ReadMemStats(&after)
			if err == nil || err.Error() != c.err {
				t.Errorf("%s/%s: error %v, want %q", c.name, rd.name, err, c.err)
			}
			if _, werr := refReadLimited(rd.wrap(c.body), limit); werr == nil || werr.Error() != c.err {
				t.Errorf("%s/%s: reference error %v, want %q", c.name, rd.name, werr, c.err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d > rd.maxAlloc {
				t.Errorf("%s/%s: allocated %d bytes, want <= %d", c.name, rd.name, d, rd.maxAlloc)
			}
		}
	}
}

// TestArrayDeclaredHugeColumnsTerminates: an array body declaring zero
// rows (or, symmetric, fewer rows than columns) and 2^63-1 columns has
// no entries to read past the first empty column. The column loop
// used to spin through all of them.
func TestArrayDeclaredHugeColumnsTerminates(t *testing.T) {
	for _, src := range []string{
		"%%MatrixMarket matrix array real general\n0 9223372036854775807\n",
		"%%MatrixMarket matrix array real symmetric\n2 9223372036854775807\n1\n2\n3\n",
	} {
		c, err := Read(strings.NewReader(src))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if c.Cols != math.MaxInt64 {
			t.Fatalf("%q: cols = %d", src, c.Cols)
		}
	}
}

// TestReadLongLines drives lines longer than the 64 KiB read buffer,
// which the line reader reassembles, against the reference.
func TestReadLongLines(t *testing.T) {
	pad := strings.Repeat(" ", 70<<10)
	long := strings.Repeat("7", 70<<10)
	for _, src := range []string{
		"%%MatrixMarket matrix coordinate real general\n%" + pad + "x\n2 2 2\n" + pad + "1 1 1.5\n2" + pad + "2\t" + pad + "-2.5" + pad + "\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 0." + long + "\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 " + long + "\n",
		"%%MatrixMarket matrix array real general\n1 1\n" + pad + "3" + pad,
	} {
		for _, limit := range []int64{0, int64(len(src)), int64(len(src)) - 1, 100 << 10} {
			got, gerr := ReadLimited(strings.NewReader(src), limit)
			want, werr := refReadLimited(strings.NewReader(src), limit)
			if msg := parityDiff(got, gerr, want, werr); msg != "" {
				t.Errorf("limit %d, %d-byte body: %s", limit, len(src), msg)
			}
		}
	}
}

// TestSkipDigits places every byte value at every position of a run
// of digits long enough for the word-at-a-time test and checks that
// skipDigits stops exactly at the first non-digit.
func TestSkipDigits(t *testing.T) {
	for c := 0; c < 256; c++ {
		for at := 0; at <= 20; at++ {
			b := []byte(strings.Repeat("0123456789", 2))
			if at < len(b) {
				b[at] = byte(c)
			}
			want := at
			if '0' <= c && c <= '9' || at == len(b) {
				want = len(b)
			}
			for from := 0; from <= min(at, 3); from++ {
				if got := skipDigits(b, from); got != want {
					t.Fatalf("byte %#x at %d, from %d: skipDigits = %d, want %d", c, at, from, got, want)
				}
			}
		}
	}
}

// BenchmarkRead parses two real-general bodies with the in-place
// scanner, with the structure read hetserve runs on uploads (values
// checked, not kept) and with the frozen string-line reference:
// "random" holds 250k entries in random order (~6 MB), "upload" has
// the shape of the large upload-cold bodies, 20k rows and 200k entries
// written row-major with ascending columns and values in (0, 1], as
// mmio.Write emits a generated matrix (~6 MB).
func BenchmarkRead(b *testing.B) {
	for _, body := range []struct {
		name string
		data []byte
	}{{"random", randomBody()}, {"upload", uploadBody()}} {
		for _, p := range []struct {
			name  string
			parse func(io.Reader, int64) (*COO, error)
		}{{"scanner", ReadLimited}, {"structure", ReadStructure}, {"reference", refReadLimited}} {
			b.Run(body.name+"/"+p.name, func(b *testing.B) {
				b.SetBytes(int64(len(body.data)))
				b.ReportAllocs()
				for range b.N {
					if _, err := p.parse(bytes.NewReader(body.data), 64<<20); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// lcg steps a 64-bit linear congruential generator.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

func randomBody() []byte {
	var buf bytes.Buffer
	buf.WriteString("%%MatrixMarket matrix coordinate real general\n20000 20000 250000\n")
	x := uint64(1)
	for k := 0; k < 250000; k++ {
		x = lcg(x)
		fmt.Fprintf(&buf, "%d %d %.17g\n", x>>48%20000+1, x>>32%20000+1, float64(x>>11)/(1<<53)-0.5)
	}
	return buf.Bytes()
}

// uploadBody gives each of 20k rows ten entries: the columns ascend
// from a random start by random steps of 1 to 200.
func uploadBody() []byte {
	const rows, perRow = 20000, 10
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", rows, rows, rows*perRow)
	x := uint64(1)
	for i := 1; i <= rows; i++ {
		x = lcg(x)
		j := int(x>>40%(rows-perRow*200)) + 1
		for range perRow {
			x = lcg(x)
			fmt.Fprintf(&buf, "%d %d %.17g\n", i, j, 1-float64(x>>11)/(1<<53))
			j += int(x>>32%200) + 1
		}
	}
	return buf.Bytes()
}
