package netsim

import (
	"math"
	"testing"
)

// TestMergePerAC pins the seed-sweep pooling semantics: counters sum,
// the pooled mean delay is delivered-weighted (so a result with 3x the
// deliveries moves the mean 3x as far), P95 takes the conservative max,
// and airtime fractions weight by run duration.
func TestMergePerAC(t *testing.T) {
	a := Result{DurationUs: 1e6}
	a.PerAC[AC_BE] = ACStats{
		Flows: 1, Attempts: 10, Delivered: 8, Collisions: 2,
		NoiseLosses: 1, RetryDrops: 1, QueueDrops: 3,
		MeanDelayUs: 100, P95DelayUs: 250, TxopAirtimeFrac: 0.5,
	}
	b := Result{DurationUs: 3e6}
	b.PerAC[AC_BE] = ACStats{
		Flows: 2, Attempts: 30, Delivered: 24, Collisions: 6,
		NoiseLosses: 2, RetryDrops: 2, QueueDrops: 5,
		MeanDelayUs: 200, P95DelayUs: 240, TxopAirtimeFrac: 0.1,
	}
	m := MergePerAC([]Result{a, b})

	be := m[AC_BE]
	if be.Flows != 3 || be.Attempts != 40 || be.Delivered != 32 ||
		be.Collisions != 8 || be.NoiseLosses != 3 || be.RetryDrops != 3 ||
		be.QueueDrops != 8 {
		t.Fatalf("counters did not sum: %+v", be)
	}
	// (8*100 + 24*200) / 32 = 175 — the pooled mean, not (100+200)/2.
	if math.Abs(be.MeanDelayUs-175) > 1e-12 {
		t.Fatalf("MeanDelayUs = %v, want delivered-weighted 175", be.MeanDelayUs)
	}
	if be.P95DelayUs != 250 {
		t.Fatalf("P95DelayUs = %v, want max 250", be.P95DelayUs)
	}
	// (0.5*1e6 + 0.1*3e6) / 4e6 = 0.2 — duration-weighted, not 0.3.
	if math.Abs(be.TxopAirtimeFrac-0.2) > 1e-12 {
		t.Fatalf("TxopAirtimeFrac = %v, want duration-weighted 0.2", be.TxopAirtimeFrac)
	}
	// Categories no result used stay zero.
	if m[AC_VO] != (ACStats{}) {
		t.Fatalf("untouched AC_VO is non-zero: %+v", m[AC_VO])
	}
}

// TestMergePerACEdges: merging nothing is all-zero, and a category with
// deliveries in no result must not divide by zero.
func TestMergePerACEdges(t *testing.T) {
	if m := MergePerAC(nil); m != ([NumACs]ACStats{}) {
		t.Fatalf("MergePerAC(nil) = %+v, want zero", m)
	}
	r := Result{DurationUs: 1e6}
	r.PerAC[AC_VI] = ACStats{Attempts: 5, MeanDelayUs: 999} // nothing delivered
	m := MergePerAC([]Result{r})
	if m[AC_VI].MeanDelayUs != 0 {
		t.Fatalf("zero-delivered MeanDelayUs = %v, want 0", m[AC_VI].MeanDelayUs)
	}
	if m[AC_VI].Attempts != 5 {
		t.Fatalf("Attempts = %d, want 5", m[AC_VI].Attempts)
	}
}

// TestFlowStatsDelayEdges covers the delay percentiles at the sample
// counts where off-by-ones live: no samples (all delay figures stay
// zero rather than NaN) and a single sample (mean, max, and P95 must
// all equal it).
func TestFlowStatsDelayEdges(t *testing.T) {
	mk := func(delays []float64) FlowStats {
		f := &Flow{
			From:     &Node{Name: "sta1"},
			Gen:      Saturated{PayloadBytes: 1000},
			delaysUs: delays,
		}
		return f.stats(1e6, nil)
	}
	s := mk(nil)
	if s.MeanDelayUs != 0 || s.MaxDelayUs != 0 || s.P95DelayUs != 0 {
		t.Fatalf("no-sample delays = mean %v max %v p95 %v, want all 0",
			s.MeanDelayUs, s.MaxDelayUs, s.P95DelayUs)
	}
	s = mk([]float64{420})
	if s.MeanDelayUs != 420 || s.MaxDelayUs != 420 || s.P95DelayUs != 420 {
		t.Fatalf("one-sample delays = mean %v max %v p95 %v, want all 420",
			s.MeanDelayUs, s.MaxDelayUs, s.P95DelayUs)
	}
}
