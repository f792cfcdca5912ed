package mathx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortedPercentile is the definition Percentile reproduces: sort a copy,
// then interpolate between the two order statistics around the rank.
func sortedPercentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return Lerp(s[i], s[i+1], pos-float64(i))
}

// sameFloat is bit equality, except that all NaNs are alike and the sign
// of a zero is not compared: -0 and +0 tie, so which of them a sort
// leaves at a tied rank is unspecified too.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if a == 0 && b == 0 {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkPercentile holds Percentile and PercentileInPlace to the sorting
// definition and Percentile to leaving its input alone.
func checkPercentile(t *testing.T, xs []float64, p float64) {
	t.Helper()
	orig := append([]float64(nil), xs...)
	want := sortedPercentile(xs, p)
	if got := Percentile(xs, p); !sameFloat(got, want) {
		t.Errorf("Percentile(%v, %v) = %v, sorting gives %v", xs, p, got, want)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("Percentile reordered its input: %v, was %v", xs, orig)
		}
	}
	if got := PercentileInPlace(append([]float64(nil), xs...), p); !sameFloat(got, want) {
		t.Errorf("PercentileInPlace(%v, %v) = %v, sorting gives %v", xs, p, got, want)
	}
}

var testPercentiles = []float64{0, 0.5, 50, 95, 99.9, 100}

func TestPercentileSelectionMatchesSort(t *testing.T) {
	ramp := make([]float64, 200)
	for i := range ramp {
		ramp[i] = float64(i) * 1.25
	}
	reversed := make([]float64, len(ramp))
	for i, x := range ramp {
		reversed[len(ramp)-1-i] = x
	}
	rnd := rand.New(rand.NewSource(5))
	noisy := make([]float64, 1001)
	for i := range noisy {
		noisy[i] = rnd.ExpFloat64() * 300
	}
	dupes := make([]float64, 1000)
	for i := range dupes {
		dupes[i] = float64(rnd.Intn(7)) * 9.5
	}
	inputs := []struct {
		name string
		xs   []float64
	}{
		{"n=1", []float64{7.5}},
		{"n=2", []float64{9, -3}},
		{"duplicates", []float64{5, 1, 5, 3, 5, 1, 3, 5, 2, 5}},
		{"all-equal", []float64{4, 4, 4, 4, 4, 4, 4}},
		{"sorted", ramp},
		{"reversed", reversed},
		{"random", noisy},
		{"few-distinct", dupes},
		{"nan-inf-zero", []float64{math.NaN(), 3, math.Inf(1), -1, math.Copysign(0, -1), math.Inf(-1), math.NaN(), 0, 2}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			for _, p := range testPercentiles {
				checkPercentile(t, in.xs, p)
			}
		})
	}
}

// FuzzPercentile decodes the bytes as samples — small integers when the
// first byte is even, so ties are common, and raw float64 bit patterns
// (NaNs, infinities, signed zeros, subnormals) when it is odd — and
// holds the selection to the sorting definition at p.
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 1, 5, 9, 2, 6}, 95.0)
	f.Add([]byte{0, 7, 7, 7, 7}, 50.0)
	f.Add([]byte{0, 1}, 99.9)
	f.Add([]byte{0, 250, 2}, 0.5)
	f.Add(append([]byte{1}, make([]byte, 24)...), 100.0)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff}, 0.0)
	f.Fuzz(func(t *testing.T, raw []byte, p float64) {
		if len(raw) < 2 || math.IsNaN(p) {
			return
		}
		var xs []float64
		if raw[0]%2 == 0 {
			for _, b := range raw[1:] {
				xs = append(xs, float64(int8(b))/4)
			}
		} else {
			for b := raw[1:]; len(b) >= 8; b = b[8:] {
				xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(b)))
			}
		}
		if len(xs) == 0 {
			return
		}
		checkPercentile(t, xs, p)
	})
}
