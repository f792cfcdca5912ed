package main

import (
	"crypto/sha256"
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/phy"
)

// checkResult returns the invariants r breaks; every netsim Result
// must satisfy them.
func checkResult(r netsim.Result) []string {
	var p []string
	if r.Delivered <= 0 {
		p = append(p, fmt.Sprintf("Delivered = %d, want > 0", r.Delivered))
	}
	modes := 0
	for _, v := range r.ModeAttempts {
		modes += v
	}
	if modes != r.Attempts {
		p = append(p, fmt.Sprintf("ModeAttempts sum to %d, Attempts = %d", modes, r.Attempts))
	}
	var ac netsim.ACStats
	for _, a := range r.PerAC {
		ac.Flows += a.Flows
		ac.Attempts += a.Attempts
		ac.Delivered += a.Delivered
		ac.Collisions += a.Collisions
		ac.NoiseLosses += a.NoiseLosses
		ac.RetryDrops += a.RetryDrops
		ac.QueueDrops += a.QueueDrops
	}
	total := netsim.ACStats{Flows: len(r.Flows), Attempts: r.Attempts, Delivered: r.Delivered,
		Collisions: r.Collisions, NoiseLosses: r.NoiseLosses, RetryDrops: r.RetryDrops, QueueDrops: r.QueueDrops}
	if ac != total {
		p = append(p, fmt.Sprintf("per-AC sums %+v differ from totals %+v", ac, total))
	}
	bss := 0.0
	for _, g := range r.BssGoodputMbps {
		bss += g
	}
	if math.Abs(bss-r.AggGoodputMbps) > 1e-9*math.Max(1, r.AggGoodputMbps) {
		p = append(p, fmt.Sprintf("BssGoodputMbps sum to %v, AggGoodputMbps = %v", bss, r.AggGoodputMbps))
	}
	fracs := map[string]float64{"AirtimeFrac": r.AirtimeFrac, "EngineStats.PoolHitRate": r.EngineStats.PoolHitRate()}
	for _, f := range r.Flows {
		fracs["DropRate of "+f.Label] = f.DropRate()
	}
	if r.QoE != nil {
		fracs["QoE.RebufferRatio"] = r.QoE.RebufferRatio
	}
	for name, v := range fracs {
		if !(v >= 0 && v <= 1) {
			p = append(p, fmt.Sprintf("%s = %v, want a fraction in [0, 1]", name, v))
		}
	}
	return p
}

// checkSweep checks a mimo-link sweep: points holds nSNR points (SNR
// ascending) per code, each of frames frames. It returns the problems
// and how many points failed.
func checkSweep(points []phy.PERResult, nSNR, frames int) (problems []string, failed int) {
	for i, pt := range points {
		var p []string
		if pt.Frames != frames || pt.Errors < 0 || pt.Errors > pt.Frames {
			p = append(p, fmt.Sprintf("point %d: %d errors in %d frames, want %d frames", i, pt.Errors, pt.Frames, frames))
		}
		if pt.BitErrs < 0 || pt.BitErrs > pt.BitsSent || (pt.Errors == 0 && pt.BitErrs != 0) {
			p = append(p, fmt.Sprintf("point %d: %d bit errors in %d bits with %d frame errors", i, pt.BitErrs, pt.BitsSent, pt.Errors))
		}
		// The waterfall: each code's highest SNR point must beat its lowest.
		if i%nSNR == nSNR-1 && pt.PER() >= points[i-nSNR+1].PER() {
			p = append(p, fmt.Sprintf("point %d: PER %v at %v dB is not below PER %v at %v dB",
				i, pt.PER(), pt.SNRdB, points[i-nSNR+1].PER(), points[i-nSNR+1].SNRdB))
		}
		if len(p) > 0 {
			failed++
			problems = append(problems, p...)
		}
	}
	return problems, failed
}

// fingerprintResult digests the simulated statistics of r: MAC
// counters, per-AC and per-mode breakdowns, goodput, QoE counts and
// events fired. A change to the simulator that keeps its outputs keeps
// the fingerprint; a model change shows as a new one.
func fingerprintResult(r netsim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %d %d %d %d %d\n",
		r.Attempts, r.Delivered, r.Collisions, r.NoiseLosses, r.RetryDrops, r.QueueDrops,
		r.RtsAttempts, r.RtsFailures, r.VirtualCollisions, r.Roams, r.Txops,
		r.BlockAckRetries, r.ObssIgnores, r.ObssReuseTx)
	// fmt prints maps in key order, so the digest is stable.
	fmt.Fprintf(h, "%v\n%v\n%v\n%v %v %d\n", r.PerAC, r.ModeAttempts, r.AmpduHist,
		r.AggGoodputMbps, r.AirtimeFrac, r.EngineStats.Fired)
	if q := r.QoE; q != nil {
		fmt.Fprintf(h, "%d %d %d %d %v\n", q.Users, q.PageLoads, q.Rebuffers, len(q.MOS), q.MeanMOS)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// fingerprintPoints digests the error counts of a mimo-link sweep.
func fingerprintPoints(points []phy.PERResult) string {
	h := sha256.New()
	for _, p := range points {
		fmt.Fprintf(h, "%v %d %d %d\n", p.SNRdB, p.Frames, p.Errors, p.BitErrs)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
