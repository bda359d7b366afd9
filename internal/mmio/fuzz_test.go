package mmio

// FuzzReadParity holds the byte-slice parser to the frozen reference
// (reference_test.go) on arbitrary bodies and byte limits, and
// FuzzReadStructureParity holds the structure read to the same
// reference with its values dropped. `go test` runs the seed corpora
// below on every CI pass; `go test -run '^$' -fuzz FuzzReadParity
// ./internal/mmio` (or -fuzz FuzzReadStructureParity) explores further.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

const paritySeedHeader = "%%MatrixMarket matrix coordinate real general\n"

// paritySeeds covers every line shape the scanner hands to the
// strings.Fields path and the ones it parses in place.
var paritySeeds = []string{
	// comments, blank lines, CRLF, tabs
	paritySeedHeader + "% a comment\n3 4 3\n%another\n1 1 1.5\n\n   \n2 3 -2.0\n% mid\n3 4 7\n",
	"%%MatrixMarket matrix coordinate real general\r\n3 3 2\r\n1 1 1\r\n2 2 2\r\n",
	paritySeedHeader + "2\t2\t2\n1\t1\t1.5\n 2 \t 2\t\t-3e-7 \n",
	// signs and leading zeros
	paritySeedHeader + "3 3 3\n+1 1 2\n2 +2 +2.5\n3 3 -2.5\n",
	paritySeedHeader + "3 3 1\n-1 1 2\n",
	paritySeedHeader + "3 3 1\n1 -0 2\n",
	paritySeedHeader + "9 9 2\n001 0009 3e0\n0000000000000000001 1 1\n",
	// indexes of 19 or more digits
	paritySeedHeader + "2 2 1\n12345678901234567890 1 1\n",
	paritySeedHeader + "2 2 1\n1 9223372036854775807 1\n",
	paritySeedHeader + "2 2 1\n1 9223372036854775808 1\n",
	// NBSP and U+0085 separators, other non-ASCII bytes
	paritySeedHeader + "2 2 2\n1\u00a01\u00a01.5\n2\u00852 2\n",
	paritySeedHeader + "2 2 1\n\u00a01 1 1.5\u00a0\n",
	paritySeedHeader + "2 2 1\n1 1 1.5\u00a0\u00a0x\n",
	paritySeedHeader + "2 2 1\n1 1 1\xff\n",
	paritySeedHeader + "2 2 1\n1\xc2 1 2\n",
	paritySeedHeader + "2 2 1\n1 1 1.5 x\u0085y\n",
	"%%MatrixMarket matrix array real general\n1 1\n2\u00a0x\n",
	paritySeedHeader + "2 2 1\n1\u20001 2\n",
	// extra tokens, values of every spelling, long values
	paritySeedHeader + "2 2 2\n1 1 1.5 extra tokens\n2 2 2 3 4\n",
	paritySeedHeader + "3 3 5\n1 1 nan\n1 2 -Inf\n1 3 0x1p-2\n2 1 1e400\n2 2 4.9e-324\n",
	paritySeedHeader + "1 1 1\n1 1 1.00000000000000000000000000000000000001\n",
	paritySeedHeader + "2 2 1\n1 1 1_0\n",
	// no trailing newline
	paritySeedHeader + "1 1 1\n1 1 3.5",
	"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1",
	// pattern, integer, symmetric
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n1 1\n2 1\n3 2 ignored\n",
	"%%MatrixMarket matrix coordinate integer general\n2 2 2\n2 2 42\n1 2 -7\n",
	"%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 5\n2 1 1\n3 2 2\n",
	"%%MatrixMarket MATRIX Coordinate REAL General\n1 1 1\n1 1 2\n",
	// array, general and symmetric, with zeros
	"%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n3.0\n4.0\n",
	"%%MatrixMarket matrix array real symmetric\n3 3\n1\n0\n2\n 5\n0\n6\n",
	"%%MatrixMarket matrix array integer general\n2 1\n7 extra\n-0\n",
	"%%MatrixMarket matrix array real general\n0 9223372036854775807\n",
	"%%MatrixMarket matrix array real symmetric\n2 9223372036854775807\n1\n2\n3\n",
	// malformed bodies
	"",
	"hello\n1 1 1\n",
	paritySeedHeader,
	paritySeedHeader + "x y z\n",
	paritySeedHeader + "2 2\n",
	paritySeedHeader + "-1 2 1\n",
	paritySeedHeader + "2 2 1\n3 1 1.0\n",
	paritySeedHeader + "2 2 1\n0 1 zzz\n",
	paritySeedHeader + "2 2 2\n1 1 1.0\n",
	paritySeedHeader + "2 2 1\n1 1\n",
	paritySeedHeader + "2 2 1\n1\n",
	paritySeedHeader + "2 2 1\n1 1 zzz\n",
	paritySeedHeader + "2 2 1\n1 1.5 1\n",
	"%%MatrixMarket matrix array pattern general\n1 1\n",
	"%%MatrixMarket matrix coordinate complex general\n1 1 1\n",
	// a header declaring far more entries than the body holds
	paritySeedHeader + "10 10 100000000\n1 1 1\n",
	"%%MatrixMarket matrix coordinate real symmetric\n10 10 4611686018427387904\n1 1 1\n",
}

func FuzzReadParity(f *testing.F) {
	for _, s := range paritySeeds {
		f.Add([]byte(s), int64(0))
		f.Add([]byte(s), int64(len(s)))
	}
	// over-limit bodies
	f.Add([]byte(paritySeedHeader+"2 2 2\n1 1 1.5\n2 2 2.5\n"), int64(60))
	f.Add([]byte(paritySeedHeader+"2 2 2\n1 1 1.5\n2 2 2.5\n"), int64(10))
	for _, s := range runSeeds() {
		f.Add([]byte(s.body), s.limit)
	}
	f.Fuzz(func(t *testing.T, body []byte, limit int64) {
		// Map the limit onto "none" or 1..len+16 so limits at, just
		// under and just over the body length all come up.
		if limit > 0 {
			limit = 1 + (limit-1)%(int64(len(body))+16)
		}
		got, gerr := ReadLimited(bytes.NewReader(body), limit)
		want, werr := refReadLimited(bytes.NewReader(body), limit)
		if msg := parityDiff(got, gerr, want, werr); msg != "" {
			t.Fatalf("limit %d, body %q: %s", limit, body, msg)
		}
	})
}

// valueSeeds are value tokens at and just past the edges of the plain
// decimal shape the structure read checks without conversion.
var valueSeeds = []string{
	"1e400", "1_0", "0x1p3", "Inf", "+.5e-99", "7.", ".", "1e", "-",
	"1" + strings.Repeat("0", 200), "1" + strings.Repeat("0", 199), "-1" + strings.Repeat("0", 199) + ".5e-99",
	"1e99", "1E-05", "1e+", "1e+100", "1.2.3", "1e5x", "+", "-.e1", "00.00", "nan", "+Inf", "1_000.5",
}

func FuzzReadStructureParity(f *testing.F) {
	for _, s := range paritySeeds {
		f.Add([]byte(s), int64(0))
	}
	for _, v := range valueSeeds {
		body := paritySeedHeader + "2 2 2\n1 1 " + v + "\n2 1 " + v + " x\n"
		f.Add([]byte(body), int64(0))
		f.Add([]byte(body), int64(len(body)-3))
		f.Add([]byte("%%MatrixMarket matrix array real general\n1 2\n"+v+"\n0\n"), int64(0))
	}
	// The value check ends at the first ASCII separator: values followed
	// by each separator strings.Fields splits on and by non-ASCII
	// bytes, a value at the end of the body, and sign-only and
	// exponent-only tokens before a tab.
	for _, end := range []string{"\v", "\f", "\r", "\r\n", "\xff", "\u00a0", "\u0085x", "\xc2"} {
		f.Add([]byte(paritySeedHeader+"2 2 2\n1 1 1.5"+end+"\n2 1 -2e-07"+end+"9\n"), int64(0))
	}
	f.Add([]byte(paritySeedHeader+"2 2 1\n1 1 -2.5e+07"), int64(0))
	f.Add([]byte(paritySeedHeader+"2 2 1\n1 1 7."), int64(0))
	for _, v := range []string{"+", "-", "e5", "E-05", "+e1", ".e1", "e"} {
		f.Add([]byte(paritySeedHeader+"2 2 1\n1 1 "+v+"\t1\n"), int64(0))
	}
	for _, s := range runSeeds() {
		f.Add([]byte(s.body), s.limit)
	}
	f.Fuzz(func(t *testing.T, body []byte, limit int64) {
		if limit > 0 {
			limit = 1 + (limit-1)%(int64(len(body))+16)
		}
		got, gerr := ReadStructure(bytes.NewReader(body), limit)
		want, werr := refReadLimited(bytes.NewReader(body), limit)
		if want != nil {
			want.Vals = nil
		}
		if msg := parityDiff(got, gerr, want, werr); msg != "" {
			t.Fatalf("limit %d, body %q: %s", limit, body, msg)
		}
	})
}

// readWindow is the size of the parser's read buffer: the run scanner
// parses the complete lines it holds, and the line across its end goes
// through the line reader.
const readWindow = 1 << 16

// runBreaks are lines that end a run of plain entries: each other
// shape the scanner must leave to the line reader, with the number of
// entries it holds.
var runBreaks = []struct {
	line    string
	entries int
}{
	{"% a comment\n", 0},
	{"\n", 0},
	{"   \n", 0},
	{"1 2 1.5\r\n", 1},
	{"1\t2\t1.5\n", 1},
	{"1 2\t1.5\n", 1},
	{" 1 2 1.5\n", 1},
	{"1  2 1.5\n", 1},
	{"1 2 1.5 \n", 1},
	{"0000000000000000001 2 1.5\n", 1},
	{"1 0000000000000000002 1.5\n", 1},
	{"18446744073709551617 2 1.5\n", 1},
	{"1\u00a02 1.5\n", 1},
	{"1 2\u00851.5\n", 1},
	{"1 2 1.5\u00a0\n", 1},
	{"1 2 1e300\n", 1},
	{"1 2 0x1p-2\n", 1},
	{"1 2 -Inf\n", 1},
	{"1 2 1e400\n", 1},
	{"1 2 +1.\n", 1},
	{"1 9 1.5\n", 1},
	{"0 2 1.5\n", 1},
	{"1 2 1.5 7\n", 1},
}

// plainEntry is the k-th filler entry "i j 1.5" ("i j" when not
// valued), its row index zero-padded to width digits.
func plainEntry(k int, valued bool, width int) string {
	if valued {
		return fmt.Sprintf("%0*d %d 1.5\n", width, k%8+1, k/8%8+1)
	}
	return fmt.Sprintf("%0*d %d\n", width, k%8+1, k/8%8+1)
}

// runBody returns a body over 64 KiB of filler entries, nnz of them
// counting odd's entries, in which the line odd starts at byte offset
// at. The filler line before odd is padded so that it ends there.
func runBody(header, odd string, oddEntries, at int) string {
	valued := !strings.Contains(header, "pattern")
	short := len(plainEntry(0, valued, 1))
	nnz := (readWindow + 4096) / short
	var b strings.Builder
	fmt.Fprintf(&b, "%s8 8 %d\n", header, nnz)
	k := 0
	for ; at-b.Len() >= 2*short; k++ {
		b.WriteString(plainEntry(k, valued, 1))
	}
	if pad := at - b.Len(); pad > 0 {
		b.WriteString(plainEntry(k, valued, pad-short+1))
		k++
	}
	if b.Len() != at {
		panic(fmt.Sprintf("runBody: odd line at %d, want %d", b.Len(), at))
	}
	b.WriteString(odd)
	for k += oddEntries; k < nnz; k++ {
		b.WriteString(plainEntry(k, valued, 1))
	}
	return b.String()
}

type runSeed struct {
	body  string
	limit int64
}

// runSeeds are the bodies that hold the run scanner to the reference
// where it starts and stops: every run break placed mid-window, ending
// just before the read buffer's end, across it and starting on it, in
// general real bodies; a few in symmetric, integer and pattern bodies;
// the nnz-th entry ending mid-window before garbage; and byte limits
// that cut a plain run inside and across the window.
func runSeeds() []runSeed {
	const general = "%%MatrixMarket matrix coordinate real general\n"
	var seeds []runSeed
	for _, r := range runBreaks {
		for _, at := range []int{readWindow / 2, readWindow - len(r.line), readWindow - len(r.line)/2, readWindow} {
			seeds = append(seeds, runSeed{runBody(general, r.line, r.entries, at), 0})
		}
	}
	for _, header := range []string{
		"%%MatrixMarket matrix coordinate real symmetric\n",
		"%%MatrixMarket matrix coordinate integer general\n",
	} {
		for _, at := range []int{readWindow - 3, readWindow} {
			seeds = append(seeds, runSeed{runBody(header, "% c\n", 0, at), 0})
			seeds = append(seeds, runSeed{runBody(header, "3 2\t7\n", 1, at), 0})
		}
	}
	const pattern = "%%MatrixMarket matrix coordinate pattern general\n"
	for _, r := range []struct {
		line    string
		entries int
	}{{"3 2 x\n", 1}, {"3 2\r\n", 1}, {"3\t2\n", 1}, {"3 2 \n", 1}, {"% c\n", 0}} {
		for _, at := range []int{readWindow - len(r.line), readWindow - 2, readWindow} {
			seeds = append(seeds, runSeed{runBody(pattern, r.line, r.entries, at), 0})
		}
	}
	// The nnz-th entry ends mid-window, in the first window and in a
	// later one; nothing after it is read, though more plain entries
	// follow before the garbage.
	for _, nnz := range []int{4000, 9000} {
		var b strings.Builder
		fmt.Fprintf(&b, "%s8 8 %d\n", general, nnz)
		for k := range nnz + 100 {
			b.WriteString(plainEntry(k, true, 1))
		}
		b.WriteString("garbage \x00\xff\n")
		b.WriteString(strings.Repeat("x y z\n", readWindow/6))
		seeds = append(seeds, runSeed{b.String(), 0})
	}
	// Limits inside a plain run, in the first window, on its end and
	// in a later window.
	body := runBody(general, "", 0, readWindow/2)
	for _, limit := range []int64{readWindow / 2, readWindow - 1, readWindow, readWindow + 3, int64(len(body)) - 5} {
		seeds = append(seeds, runSeed{body, limit})
	}
	return seeds
}

// parityDiff describes how a parse result differs from the
// reference's, or returns "" when they match: the same failure (error
// text and ErrTooLarge-ness) or the same COO, values compared bitwise.
func parityDiff(got *COO, gerr error, want *COO, werr error) string {
	if (gerr == nil) != (werr == nil) {
		return fmt.Sprintf("error %v, reference %v", gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			return fmt.Sprintf("error %q, reference %q", gerr, werr)
		}
		if errors.Is(gerr, ErrTooLarge) != errors.Is(werr, ErrTooLarge) {
			return fmt.Sprintf("errors.Is(ErrTooLarge) %v, reference %v", errors.Is(gerr, ErrTooLarge), errors.Is(werr, ErrTooLarge))
		}
		return ""
	}
	if got.Rows != want.Rows || got.Cols != want.Cols || got.Field != want.Field || got.Symmetry != want.Symmetry {
		return fmt.Sprintf("shape %dx%d %v/%v, reference %dx%d %v/%v",
			got.Rows, got.Cols, got.Field, got.Symmetry, want.Rows, want.Cols, want.Field, want.Symmetry)
	}
	if !equalInt32s(got.RowIdx, want.RowIdx) || !equalInt32s(got.ColIdx, want.ColIdx) {
		return fmt.Sprintf("indexes %v/%v, reference %v/%v", got.RowIdx, got.ColIdx, want.RowIdx, want.ColIdx)
	}
	if (got.Vals == nil) != (want.Vals == nil) || len(got.Vals) != len(want.Vals) {
		return fmt.Sprintf("values %v, reference %v", got.Vals, want.Vals)
	}
	for k := range got.Vals {
		if math.Float64bits(got.Vals[k]) != math.Float64bits(want.Vals[k]) {
			return fmt.Sprintf("value %d = %x, reference %x", k, math.Float64bits(got.Vals[k]), math.Float64bits(want.Vals[k]))
		}
	}
	return ""
}

func equalInt32s(a, b []int32) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}
