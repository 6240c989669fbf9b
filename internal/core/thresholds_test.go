package core

import (
	"math"
	"testing"

	"regcluster/internal/matrix"
	"regcluster/internal/rwave"
)

// TestThresholdsDegenerateRowsFinite pins the threshold helpers' behaviour on
// degenerate genes: a constant row (max−min = 0, all adjacent gaps 0) and an
// all-zero row must yield threshold 0, never NaN, for every helper. The
// resulting vectors pass Params.Validate as CustomGammas.
func TestThresholdsDegenerateRowsFinite(t *testing.T) {
	m := matrix.FromRows([][]float64{
		{3, 3, 3, 3}, // constant
		{0, 0, 0, 0}, // all-zero
		{1, 2, 4, 8}, // ordinary, for contrast
	})
	vectors := map[string]struct {
		v        []float64
		constant float64 // expected threshold of the constant row {3,3,3,3}
	}{
		"range":   {ThresholdsRangeFraction(m, 0.5), 0},  // max−min = 0
		"mean":    {ThresholdsMeanFraction(m, 0.5), 1.5}, // 0.5 × mean(|3|)
		"nearest": {ThresholdsNearestPair(m), 0},         // all gaps 0
	}
	for name, tc := range vectors {
		v := tc.v
		if len(v) != 3 {
			t.Fatalf("%s: %d entries", name, len(v))
		}
		for g, x := range v {
			if !isFinite(x) {
				t.Errorf("%s[%d] = %v, want finite", name, g, x)
			}
		}
		if v[0] != tc.constant {
			t.Errorf("%s: constant row got threshold %v, want %v", name, v[0], tc.constant)
		}
		if v[1] != 0 {
			t.Errorf("%s: all-zero row got threshold %v, want 0", name, v[1])
		}
		if v[2] <= 0 {
			t.Errorf("%s: ordinary row got threshold %v, want > 0", name, v[2])
		}
		p := Params{MinG: 2, MinC: 2, Gamma: 0.1, CustomGammas: v}
		if err := p.Validate(); err != nil {
			t.Errorf("%s vector rejected by Validate: %v", name, err)
		}
	}
}

// TestThresholdsRejectNonFiniteGamma: a non-finite γ multiplier panics up
// front instead of leaking NaN thresholds (Inf × 0 = NaN on a constant row).
func TestThresholdsRejectNonFiniteGamma(t *testing.T) {
	m := matrix.FromRows([][]float64{{3, 3, 3}})
	for _, gamma := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, helper := range []struct {
			name string
			call func()
		}{
			{"range", func() { ThresholdsRangeFraction(m, gamma) }},
			{"mean", func() { ThresholdsMeanFraction(m, gamma) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%v) did not panic", helper.name, gamma)
					}
				}()
				helper.call()
			}()
		}
	}
}

// TestRWaveGuardsRejectNaN: the rwave build guards use negated comparisons so
// a NaN γ — which passes `< 0 || > 1` checks — panics instead of silently
// producing a pointerless model. The core layer fences NaN earlier via
// Validate; this pins that the index layer holds its own regardless.
func TestRWaveGuardsRejectNaN(t *testing.T) {
	m := matrix.FromRows([][]float64{{1, 2, 3}})
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic on NaN gamma", name)
			}
		}()
		f()
	}
	mustPanic("rwave.Build", func() { rwave.Build(m, 0, math.NaN()) })
	mustPanic("rwave.BuildAbsolute", func() { rwave.BuildAbsolute(m, 0, math.NaN()) })
	mustPanic("rwave.BuildSet", func() { rwave.BuildSet(m, func(int) float64 { return math.NaN() }, nil, nil) })
}
