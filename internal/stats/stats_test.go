package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	if got := Variance([]float64{2, 2, 2}); got != 0 {
		t.Errorf("Variance of constants = %v, want 0", got)
	}
	// Population variance of {1,2,3,4} is 1.25.
	if got := Variance([]float64{1, 2, 3, 4}); !almostEq(got, 1.25, 1e-12) {
		t.Errorf("Variance = %v, want 1.25", got)
	}
	if got := StdDev([]float64{1, 2, 3, 4}); !almostEq(got, math.Sqrt(1.25), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if got := Variance([]float64{7}); got != 0 {
		t.Errorf("Variance of single = %v, want 0", got)
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{3, 3, 3}); got != 0 {
		t.Errorf("CV of constants = %v, want 0", got)
	}
	if got := CV([]float64{-1, -2}); got != 0 {
		t.Errorf("CV with negative mean = %v, want 0", got)
	}
	regular := CV([]float64{10, 10, 10, 10, 11, 9})
	irregular := CV([]float64{1, 1, 1, 1, 1, 55})
	if regular >= irregular {
		t.Errorf("CV ordering wrong: %v >= %v", regular, irregular)
	}
}

func TestCVIntsMatchesCV(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		ints := make([]int, len(raw))
		floats := make([]float64, len(raw))
		for i, v := range raw {
			ints[i] = int(v)
			floats[i] = float64(v)
		}
		return almostEq(CVInts(ints), CV(floats), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
