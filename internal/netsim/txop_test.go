package netsim

import (
	"fmt"
	"strings"
	"testing"
)

// aggConfig is DefaultConfig with 802.11n-style A-MPDU aggregation on.
func aggConfig() Config {
	cfg := DefaultConfig()
	a := DefaultAggregation()
	cfg.Aggregation = &a
	return cfg
}

// singleLink is one saturated uplink station close to its AP.
func singleLink(cfg Config, seed int64, payloadBytes int) *Network {
	n := New(cfg, seed)
	b := n.AddAP("AP", 0, 0, 1)
	st := n.AddStation(b, "sta", 8, 0)
	n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Saturated{PayloadBytes: payloadBytes}})
	return n
}

// The aggregation headline: on a clean 54 Mbps link with small frames,
// single-frame exchanges pay preamble+SIFS+ACK per packet and MAC
// efficiency collapses; A-MPDU pays it once per burst and restores it
// by well over the 2x acceptance bar.
func TestAmpduRestoresMacEfficiency(t *testing.T) {
	const dur = 500000
	plain := singleLink(DefaultConfig(), 3, 400).Run(dur)
	agg := singleLink(aggConfig(), 3, 400).Run(dur)
	pe, ae := plain.Flows[0].MacEfficiency, agg.Flows[0].MacEfficiency
	if pe <= 0 || ae <= 0 {
		t.Fatalf("efficiency not measured: plain %v agg %v", pe, ae)
	}
	if ae < 2*pe {
		t.Errorf("A-MPDU efficiency %.3f not >= 2x single-frame %.3f", ae, pe)
	}
	if agg.AggGoodputMbps < 2*plain.AggGoodputMbps {
		t.Errorf("A-MPDU goodput %.1f not >= 2x single-frame %.1f",
			agg.AggGoodputMbps, plain.AggGoodputMbps)
	}
	if len(agg.AmpduHist) == 0 {
		t.Fatal("aggregated run recorded no A-MPDU sizes")
	}
	if agg.AmpduHist[DefaultAggregation().MaxAmpduFrames] == 0 {
		t.Errorf("saturated queue never filled a max-size burst: %v", agg.AmpduHist)
	}
	if plain.AmpduHist != nil {
		t.Errorf("non-aggregated run grew an A-MPDU histogram: %v", plain.AmpduHist)
	}
}

// With every TxopLimitUs zero each TXOP is exactly one exchange, so
// Txops must equal Attempts; with a limit the holder chains exchanges
// and wins fewer, longer opportunities for more goodput.
func TestTxopLimitChainsExchanges(t *testing.T) {
	const dur = 500000
	run := func(limitUs float64) Result {
		cfg := DefaultConfig()
		e := DefaultEdca(cfg.Dcf, cfg.QueueLimit)
		e[AC_VO].TxopLimitUs = limitUs
		cfg.Edca = &e
		n := New(cfg, 5)
		b := n.AddAP("AP", 0, 0, 1)
		st := n.AddStation(b, "sta", 8, 0)
		n.Add(FlowSpec{From: st, AC: AC_VO, Gen: Saturated{PayloadBytes: 800}})
		return n.Run(dur)
	}
	single, burst := run(0), run(1504)
	if single.Txops != single.Attempts {
		t.Errorf("zero limit: %d TXOPs vs %d attempts, want equal", single.Txops, single.Attempts)
	}
	if burst.Txops == 0 || burst.Attempts <= burst.Txops {
		t.Fatalf("limit 1504 us never chained: %d attempts over %d TXOPs", burst.Attempts, burst.Txops)
	}
	// A 800 B exchange at 54 Mbps spans ~200 us plus SIFS chaining, so a
	// 1504 us TXOP should hold several exchanges on average.
	if perTxop := float64(burst.Attempts) / float64(burst.Txops); perTxop < 3 {
		t.Errorf("mean exchanges per TXOP %.2f, want a real burst", perTxop)
	}
	if burst.AggGoodputMbps <= single.AggGoodputMbps {
		t.Errorf("TXOP bursting goodput %.2f not above single-exchange %.2f",
			burst.AggGoodputMbps, single.AggGoodputMbps)
	}
	if f := burst.PerAC[AC_VO].TxopAirtimeFrac; f <= single.PerAC[AC_VO].TxopAirtimeFrac {
		t.Errorf("burst airtime utilization %.3f not above single-exchange %.3f",
			f, single.PerAC[AC_VO].TxopAirtimeFrac)
	}
}

// The opening exchange of a TXOP must honor the limit too: a burst the
// builder would otherwise fill to MaxAmpduFrames is trimmed until the
// whole exchange fits inside TxopLimitUs (chained exchanges are
// fit-checked at launch; this guards the first one).
func TestTxopLimitTrimsOpeningBurst(t *testing.T) {
	cfg := aggConfig()
	n := New(cfg, 1)
	b := n.AddAP("AP", 0, 0, 1)
	st := n.AddStation(b, "sta", 8, 0)
	fl := n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Saturated{PayloadBytes: 1500}})
	n.build()
	fl.ac = AC_BE
	q := &st.acq[AC_BE]
	for i := 0; i < 32; i++ {
		q.queue.push(&packet{flow: fl, bytes: 1500, ac: AC_BE})
	}
	const limitUs = 1504.0
	st.txop = &Txop{q: q, StartUs: 0, LimitUs: limitUs}
	ex := st.buildExchange(st.txop)
	if !ex.ampdu || len(ex.mpdus) >= 32 {
		t.Fatalf("burst not trimmed: %d MPDUs (ampdu=%v)", len(ex.mpdus), ex.ampdu)
	}
	if air := ex.airUs(); air > limitUs+1 {
		t.Errorf("opening exchange spans %.0f us, exceeding the %v us TXOP limit", air, limitUs)
	}
	// Without a limit the same queue fills the full burst.
	st.txop = &Txop{q: q, StartUs: 0, LimitUs: 0}
	if ex := st.buildExchange(st.txop); len(ex.mpdus) != 32 {
		t.Errorf("unlimited TXOP gathered %d MPDUs, want 32", len(ex.mpdus))
	}
}

// White box: the Block-ACK bitmap must retransmit exactly the failed
// subset — failed MPDUs return to the head of the queue in their
// original order, delivered ones leave, and the accounting charges
// each side correctly.
func TestBlockAckRetransmitsExactlyFailedSet(t *testing.T) {
	cfg := aggConfig()
	n := New(cfg, 1)
	b := n.AddAP("AP", 0, 0, 1)
	st := n.AddStation(b, "sta", 8, 0)
	fl := n.Add(FlowSpec{From: st, AC: AC_BE, Gen: CBR{PayloadBytes: 300, IntervalUs: 1e9}})
	n.build()
	fl.ac = AC_BE

	const nPkts = 5
	pkts := make([]*packet, nPkts)
	for i := range pkts {
		pkts[i] = &packet{flow: fl, bytes: 300, arrivalUs: 0, ac: AC_BE}
		st.acq[AC_BE].queue.push(pkts[i])
	}
	q := &st.acq[AC_BE]
	st.transmitting = true
	st.txop = &Txop{q: q, StartUs: 0, LimitUs: 0}
	ex := st.buildExchange(st.txop)
	if len(ex.mpdus) != nPkts || !ex.ampdu {
		t.Fatalf("builder gathered %d MPDUs (ampdu=%v), want %d", len(ex.mpdus), ex.ampdu, nPkts)
	}
	q.queue.pop(nPkts) // what launch does for a burst

	// Feed the production Block-ACK path a hand-made bitmap: MPDUs 1
	// and 3 failed, the rest were acknowledged.
	tr := &transmission{kind: FrameData, tx: st, rx: ex.rx, pkt: ex.mpdus[0], ex: ex, mode: ex.mode}
	failed := map[int]bool{1: true, 3: true}
	mask := make([]bool, nPkts)
	for i := range mask {
		mask[i] = !failed[i]
	}
	st.applyBlockAck(tr, mask)

	if got := q.queue.len(); got != 2 {
		t.Fatalf("%d packets requeued, want exactly the 2 failed", got)
	}
	if queued := q.queue.items(); queued[0] != pkts[1] || queued[1] != pkts[3] {
		t.Errorf("requeued set/order wrong: got %v want [pkt1 pkt3]", queued)
	}
	for i, p := range pkts {
		wantRetries := 0
		if failed[i] {
			wantRetries = 1
		}
		if p.retries != wantRetries {
			t.Errorf("pkt%d retries %d, want %d", i, p.retries, wantRetries)
		}
	}
	if fl.deliveredN != 3 {
		t.Errorf("flow recorded %d deliveries, want 3", fl.deliveredN)
	}
	if n.shards[0].blockAckRetries != 2 {
		t.Errorf("BlockAckRetries %d, want 2", n.shards[0].blockAckRetries)
	}
}

// End to end on a lossy link: with aggregation on, Block-ACK partial
// losses must actually occur, every retransmission must eventually
// land or be shed, and no packet may be duplicated or stranded.
func TestAmpduPartialLossConservation(t *testing.T) {
	cfg := aggConfig()
	n := New(cfg, 9)
	b := n.AddAP("AP", 0, 0, 1)
	// Far enough out that the selected mode runs at a real PER, so
	// bursts lose some MPDUs but not all.
	st := n.AddStation(b, "sta", 120, 0)
	n.Add(FlowSpec{From: st, AC: AC_BE, Gen: Poisson{PayloadBytes: 600, PktPerSec: 2000}})
	res := n.Run(1e6)
	fs := res.Flows[0]
	if res.BlockAckRetries == 0 {
		t.Error("lossy aggregated run saw no Block-ACK retransmissions")
	}
	if fs.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", fs)
	}
	queued := 0
	for _, nd := range n.nodes {
		for ac := range nd.acq {
			queued += nd.acq[ac].queue.len()
		}
	}
	// Conservation: every arrival is delivered, dropped, still queued,
	// or part of the at-most-one burst in flight at the horizon.
	acct := fs.Delivered + fs.QueueDrops + fs.RetryDrops + queued
	slack := fs.Arrivals - acct
	if slack < 0 || slack > cfg.Aggregation.MaxAmpduFrames {
		t.Errorf("conservation off: %d accounted vs %d arrivals", acct, fs.Arrivals)
	}
	if fs.Delivered > fs.Arrivals {
		t.Errorf("duplicated deliveries: %d delivered vs %d arrivals", fs.Delivered, fs.Arrivals)
	}
}

// Aggregation, TXOP limits, RTS protection, EDCA, and ARF compose and
// stay bit-for-bit deterministic under a fixed seed.
func TestTxopAmpduDeterministic(t *testing.T) {
	build := func() Result {
		cfg := aggConfig()
		e := DefaultEdca(cfg.Dcf, cfg.QueueLimit).WithDot11eTxop(cfg.Dcf)
		cfg.Edca = &e
		cfg.RtsThresholdBytes = 1000
		n := New(cfg, 17)
		b := n.AddAP("AP", 0, 0, 1)
		s1 := n.AddStation(b, "s1", 150, 0)
		s2 := n.AddStation(b, "s2", -150, 0)
		n.Add(FlowSpec{From: s1, AC: AC_VO, Gen: Saturated{PayloadBytes: 700}})
		n.Add(FlowSpec{From: s2, AC: AC_BE, Gen: Saturated{PayloadBytes: 1300}})
		n.Add(FlowSpec{From: b.AP, To: s1, AC: AC_VI, Gen: Poisson{PayloadBytes: 900, PktPerSec: 300}})
		return n.Run(1e6)
	}
	a, b := build(), build()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("same seed diverged with TXOP+A-MPDU+RTS:\n%+v\n%+v", a, b)
	}
	if a.Delivered == 0 || a.RtsAttempts == 0 {
		t.Errorf("composition delivered nothing or never protected: %+v", a)
	}
}

// A roaming downlink stream with aggregation on must not strand or
// duplicate packets when bursts are in flight across a reassociation.
func TestAmpduRoamingHandoffConserves(t *testing.T) {
	cfg := aggConfig()
	cfg.RoamIntervalUs = 100000
	n := RoamingWalkDownlink(cfg, 120, 20)(3)
	res := n.Run(5e6)
	if res.Roams == 0 {
		t.Fatal("walker never reassociated")
	}
	fs := res.Flows[0]
	if fs.Delivered == 0 || fs.DropRate() > 0.2 {
		t.Errorf("downlink flow suffered through the roam: %+v", fs)
	}
	queued := 0
	for _, nd := range n.nodes {
		for ac := range nd.acq {
			queued += nd.acq[ac].queue.len()
		}
	}
	acct := fs.Delivered + fs.QueueDrops + fs.RetryDrops + queued
	slack := fs.Arrivals - acct
	if slack < 0 || slack > cfg.Aggregation.MaxAmpduFrames {
		t.Errorf("packet conservation off: %d accounted vs %d arrivals (queued %d)",
			acct, fs.Arrivals, queued)
	}
}

// The builder must respect both A-MPDU caps and the same-receiver rule.
func TestAmpduBuilderRespectsCaps(t *testing.T) {
	cfg := aggConfig()
	cfg.Aggregation.MaxAmpduFrames = 4
	cfg.Aggregation.MaxAmpduBytes = 2000
	n := New(cfg, 1)
	b := n.AddAP("AP", 0, 0, 1)
	s1 := n.AddStation(b, "s1", 8, 0)
	s2 := n.AddStation(b, "s2", -8, 0)
	f1 := n.Add(FlowSpec{From: b.AP, To: s1, AC: AC_BE, Gen: CBR{PayloadBytes: 600, IntervalUs: 1e9}})
	f2 := n.Add(FlowSpec{From: b.AP, To: s2, AC: AC_BE, Gen: CBR{PayloadBytes: 600, IntervalUs: 1e9}})
	n.build()
	ap := b.AP
	q := &ap.acq[AC_BE]
	enq := func(f *Flow, bytes int) {
		q.queue.push(&packet{flow: f, bytes: bytes, ac: AC_BE})
	}
	// 600+600+600 fits under 2000; the fourth same-dest packet would
	// overflow the byte cap, and the s2 packet breaks the receiver run.
	enq(f1, 600)
	enq(f1, 600)
	enq(f1, 600)
	enq(f1, 600)
	enq(f2, 600)
	ap.txop = &Txop{q: q, StartUs: 0}
	ex := ap.buildExchange(ap.txop)
	if len(ex.mpdus) != 3 {
		t.Errorf("byte cap: gathered %d MPDUs, want 3", len(ex.mpdus))
	}
	// Raise the byte cap: now the frame cap (4) binds before the s2
	// packet is ever considered.
	n.cfg.Aggregation.MaxAmpduBytes = 1 << 20
	ex = ap.buildExchange(ap.txop)
	if len(ex.mpdus) != 4 {
		t.Errorf("frame cap: gathered %d MPDUs, want 4", len(ex.mpdus))
	}
	for _, p := range ex.mpdus {
		if p.flow != f1 {
			t.Error("burst crossed a receiver boundary")
		}
	}
}

// New-surface validation guards: TXOP and aggregation parameters panic
// with named parameters, like the PR 3 scenario guards.
func TestTxopAggregationConfigGuards(t *testing.T) {
	cases := []struct {
		name string
		want string
		call func()
	}{
		{"negative txop limit", "TxopLimitUs",
			func() {
				cfg := edcaConfig()
				cfg.Edca[AC_VO].TxopLimitUs = -1
				New(cfg, 1)
			}},
		{"zero ampdu frames", "MaxAmpduFrames",
			func() {
				cfg := aggConfig()
				cfg.Aggregation.MaxAmpduFrames = 0
				New(cfg, 1)
			}},
		{"negative ampdu frames", "MaxAmpduFrames",
			func() {
				cfg := aggConfig()
				cfg.Aggregation.MaxAmpduFrames = -3
				New(cfg, 1)
			}},
		{"zero ampdu bytes", "MaxAmpduBytes",
			func() {
				cfg := aggConfig()
				cfg.Aggregation.MaxAmpduBytes = 0
				New(cfg, 1)
			}},
		{"zero blockack", "BlockAckUs",
			func() {
				cfg := aggConfig()
				cfg.Aggregation.BlockAckUs = 0
				New(cfg, 1)
			}},
		{"negative blockack", "BlockAckUs",
			func() {
				cfg := aggConfig()
				cfg.Aggregation.BlockAckUs = -44
				New(cfg, 1)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q does not name the offender %q", msg, tc.want)
				}
			}()
			tc.call()
		})
	}
}
