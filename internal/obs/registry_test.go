package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func scrapeRegistry(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRegistryLabelEscaping holds label values to the text format's
// three escapes (backslash, double quote, newline); a tab, U+2028 and
// non-ASCII letters are written as they are, not Go-quoted.
func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("m", "h", "v").With("q\"b\\s\nt\tu\u2028é").Inc()
	want := `m{v="q\"b\\s\nt` + "\tu\u2028é" + `"} 1` + "\n"
	if out := scrapeRegistry(t, r); !strings.HasSuffix(out, want) {
		t.Errorf("got\n%s\nwant the sample line\n%s", out, want)
	}
}

// TestRegistryExposition checks the writer's rules beyond escaping:
// integral values print as integers, samples sort by label values
// whatever order they were emitted in, a func family that emits nothing
// is left out, and a labeled family with no series keeps its header.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("empty", "never emits", nil, func(Emit) {})
	r.CounterVec("unused", "no series yet", "k")
	r.GaugeFunc("g", "values", []string{"k"}, func(emit Emit) {
		emit(math.NaN(), "e")
		emit(-3, "d")
		emit(1e300, "c")
		emit(0.25, "b")
		emit(1.5e6, "a")
	})
	want := `# HELP unused no series yet
# TYPE unused counter
# HELP g values
# TYPE g gauge
g{k="a"} 1500000
g{k="b"} 0.25
g{k="c"} 1e+300
g{k="d"} -3
g{k="e"} NaN
`
	if out := scrapeRegistry(t, r); out != want {
		t.Errorf("got\n%s\nwant\n%s", out, want)
	}
}

// TestRegistryConcurrent records into every kind of family — creating
// new series as it goes — while other goroutines scrape. Run it under
// -race -count=10; the final scrape must account for every event.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "counter")
	g := r.Gauge("g", "gauge")
	cv := r.CounterVec("cv", "counter vec", "worker", "parity")
	hv := r.HistogramVec("hv", "histogram vec", []float64{0.5, 1}, "worker")
	r.GaugeFunc("f", "func", nil, func(emit Emit) { emit(float64(c.Value())) })

	const workers, events = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprint(w)
			for i := 0; i < events; i++ {
				c.Inc()
				g.Add(1)
				cv.With(name, fmt.Sprint(i%2)).Inc()
				hv.With(name).Observe(float64(i%3) / 2)
				g.Add(-1)
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := r.WriteTo(&strings.Builder{}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	out := scrapeRegistry(t, r)
	for _, want := range []string{
		fmt.Sprintf("c %d\n", workers*events),
		"g 0\n",
		fmt.Sprintf(`cv{worker="7",parity="1"} %d`+"\n", events/2),
		fmt.Sprintf(`hv_count{worker="0"} %d`+"\n", events),
		fmt.Sprintf(`hv_bucket{worker="3",le="+Inf"} %d`+"\n", events),
		fmt.Sprintf("f %d\n", workers*events),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("final scrape missing %q", want)
		}
	}
	if n := strings.Count(out, "cv{"); n != 2*workers {
		t.Errorf("%d cv series, want %d", n, 2*workers)
	}
}
