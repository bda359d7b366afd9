package obs

import (
	"strings"
	"testing"
)

// scrapeHistogram registers one histogram family m over bounds with the
// given labels, lets observe feed it, and returns the registry's
// exposition.
func scrapeHistogram(t *testing.T, bounds []float64, labels []string, observe func(*Vec[Histogram])) string {
	t.Helper()
	r := NewRegistry()
	observe(r.HistogramVec("m", "help", bounds, labels...))
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestHistogramBucketing is the shared histogram's contract test: it
// used to live in internal/serve before the implementation was
// deduplicated into this package.
func TestHistogramBucketing(t *testing.T) {
	out := scrapeHistogram(t, []float64{0.001, 0.01, 0.1}, []string{"k"}, func(v *Vec[Histogram]) {
		h := v.With("v")
		h.Observe(0.0001) // below the first bound
		h.Observe(0.001)  // exactly on a bound counts in that bucket
		h.Observe(0.05)
		h.Observe(99) // beyond every bound lands in +Inf only
	})
	for _, want := range []string{
		`m_bucket{k="v",le="0.001"} 2`, // cumulative: 0.0001 and 0.001
		`m_bucket{k="v",le="0.01"} 2`,
		`m_bucket{k="v",le="0.1"} 3`,
		`m_bucket{k="v",le="+Inf"} 4`,
		`m_count{k="v"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestHistogramBareLabels(t *testing.T) {
	out := scrapeHistogram(t, []float64{1}, nil, func(v *Vec[Histogram]) { v.With().Observe(0.5) })
	for _, want := range []string{
		`m_bucket{le="1"} 1`,
		`m_bucket{le="+Inf"} 1`,
		"m_sum 0.5",
		"m_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "m_sum{") || strings.Contains(out, "m_count{") {
		t.Errorf("bare series grew braces:\n%s", out)
	}
}

func TestHistogramCopiesBounds(t *testing.T) {
	bounds := []float64{1, 2}
	out := scrapeHistogram(t, bounds, nil, func(v *Vec[Histogram]) {
		bounds[0] = 100 // caller mutating its slice must not skew bucketing
		v.With().Observe(1.5)
	})
	if !strings.Contains(out, `m_bucket{le="1"} 0`) {
		t.Errorf("bounds not copied:\n%s", out)
	}
}
