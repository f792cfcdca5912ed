// Package mathx provides the small numerical utilities shared by the
// wlan simulation stack: decibel conversions, Gaussian tail probabilities,
// descriptive statistics, and interpolation helpers.
//
// All routines operate on float64 and are deterministic; none of them
// allocate unless they return a slice.
package mathx

import (
	"math"
	"math/bits"
	"sort"
)

// DBToLinear converts a power ratio expressed in decibels to a linear ratio.
func DBToLinear(db float64) float64 {
	return math.Pow(10, db/10)
}

// LinearToDB converts a linear power ratio to decibels. A non-positive
// input returns -Inf, matching the mathematical limit.
func LinearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

// DBmToWatts converts a power level in dBm to watts.
func DBmToWatts(dbm float64) float64 {
	return math.Pow(10, dbm/10) / 1000
}

// WattsToDBm converts a power level in watts to dBm. Non-positive power
// returns -Inf.
func WattsToDBm(w float64) float64 {
	if w <= 0 {
		return math.Inf(-1)
	}
	return 10*math.Log10(w) + 30
}

// Q is the Gaussian tail probability Q(x) = P(N(0,1) > x).
func Q(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// QInv returns the inverse of Q: the x such that Q(x) = p, for p in (0, 1).
// It bisects on Q, which is monotone decreasing; the result is accurate to
// about 1e-12.
func QInv(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p >= 1 {
		return math.Inf(-1)
	}
	lo, hi := -40.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if Q(mid) > p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Lerp linearly interpolates between a and b with parameter t in [0, 1].
func Lerp(a, b, t float64) float64 {
	return a + (b-a)*t
}

// InterpAt evaluates the piecewise-linear function defined by sorted xs and
// corresponding ys at x, clamping outside the domain. It panics if the
// slices differ in length or are empty.
func InterpAt(xs, ys []float64, x float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("mathx: InterpAt requires equal-length non-empty slices")
	}
	if x <= xs[0] {
		return ys[0]
	}
	last := len(xs) - 1
	if x >= xs[last] {
		return ys[last]
	}
	i := sort.SearchFloat64s(xs, x)
	// xs[i-1] < x <= xs[i]
	t := (x - xs[i-1]) / (xs[i] - xs[i-1])
	return Lerp(ys[i-1], ys[i], t)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MinMax returns the minimum and maximum of xs. It panics on an empty
// slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("mathx: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between order statistics. It panics on an empty slice and
// leaves xs unmodified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Percentile of empty slice")
	}
	return PercentileInPlace(append([]float64(nil), xs...), p)
}

// PercentileInPlace is Percentile for a caller whose slice may be
// reordered, such as a scratch copy. Instead of sorting it selects the one
// or two order statistics the interpolation reads, in expected linear
// time. Order statistics do not depend on how they are found, and the
// ordering is sort.Float64s' own (NaNs first), so the result equals that
// of sorting bit for bit; only the sign of a zero may differ, because -0
// and +0 tie and neither method specifies which of them a tied rank
// holds.
func PercentileInPlace(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		panic("mathx: Percentile of empty slice")
	}
	if p <= 0 {
		return minFloat(xs)
	}
	if p >= 100 {
		return maxFloat(xs)
	}
	pos := p / 100 * float64(n-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= n {
		return maxFloat(xs)
	}
	selectNth(xs, i)
	// Everything after rank i is no smaller, so rank i+1 is its minimum.
	return Lerp(xs[i], minFloat(xs[i+1:]), frac)
}

// floatLess is the ordering of sort.Float64s: NaNs before every number.
func floatLess(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

func minFloat(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if floatLess(x, m) {
			m = x
		}
	}
	return m
}

func maxFloat(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if floatLess(m, x) {
			m = x
		}
	}
	return m
}

// selectNth reorders xs so that xs[k] holds what sorting would put there,
// with nothing greater before it and nothing smaller after it. Three-way
// partitioning around a median-of-three pivot keeps duplicate-heavy and
// presorted input linear; a range that still resists after 2·log2(n)
// rounds is sorted outright, which bounds the worst case at O(n log n).
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs)
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 1; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo:hi])
			return
		}
		pivot := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		// [lo,lt) < pivot, [lt,i) ties it, [gt,hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case floatLess(x, pivot):
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case floatLess(pivot, x):
				gt--
				xs[i], xs[gt] = xs[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

func median3(a, b, c float64) float64 {
	if floatLess(b, a) {
		a, b = b, a
	}
	if floatLess(c, b) {
		b = c
		if floatLess(b, a) {
			b = a
		}
	}
	return b
}
