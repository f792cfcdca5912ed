package netsim

import (
	"runtime"
	"testing"
)

// checkPacketRecords audits packet ownership at the end of a run. Every
// live packet is in exactly one transmit queue or in the one A-MPDU
// burst its sender has on the air; none is zeroed (released) or also
// on a shard's free list; no record is on a free list twice; and per
// flow, arrivals = delivered + queue drops + retry drops + live. A
// release on relay or handoff shows up as a live packet on a free
// list, a double release as a repeated free-list entry, a lost packet
// as an accounting gap.
func checkPacketRecords(t *testing.T, n *Network) {
	t.Helper()
	holder := make(map[*packet]string)
	live := make(map[*Flow]int)
	hold := func(p *packet, where string) {
		if prev, dup := holder[p]; dup {
			t.Errorf("one packet record held twice: %s and %s", prev, where)
			return
		}
		holder[p] = where
		if p.flow == nil {
			t.Errorf("%s holds a released packet record", where)
			return
		}
		live[p.flow]++
	}
	for _, nd := range n.nodes {
		for ac := range nd.acq {
			for _, p := range nd.acq[ac].queue.items() {
				hold(p, nd.Name+" "+AC(ac).String()+" queue")
			}
		}
		// A burst leaves the queue at launch; curPkt marks it on the air
		// (nil in the chained-SIFS gap, when ex.mpdus is stale).
		if tx := nd.txop; tx != nil && nd.curPkt != nil && tx.ex.ampdu {
			for _, p := range tx.ex.mpdus {
				hold(p, nd.Name+" burst in flight")
			}
		}
	}
	for _, sh := range n.shards {
		freed := make(map[*packet]bool)
		for _, p := range sh.pktPool.free {
			if freed[p] {
				t.Errorf("shard %d: packet record released twice", sh.idx)
			}
			freed[p] = true
			if where, ok := holder[p]; ok {
				t.Errorf("shard %d: released packet record still held by %s", sh.idx, where)
			}
		}
	}
	for _, f := range n.flows {
		if acct := f.deliveredN + f.queueDrops + f.lineDrops + live[f]; acct != f.arrivals {
			t.Errorf("flow %s→%v: %d arrivals but %d delivered + %d queue drops + %d retry drops + %d live",
				f.From.Name, f.To != nil, f.arrivals, f.deliveredN, f.queueDrops, f.lineDrops, live[f])
		}
	}
}

// queuedAudit is a shard probe that holds every flow injecting on its
// shard to Flow.queued == a scan of the flow's source queue, at every
// frame verdict and every enqueue — so at each delivery and at each
// refill that follows one. It reads only its own shard's queues.
type queuedAudit struct {
	t      *testing.T
	n      *Network
	shard  int
	checks int
	failed bool
}

func (a *queuedAudit) OnEvent(ev Event) {
	if a.failed || (ev.Kind != EvRxOutcome && ev.Kind != EvEnqueue) {
		return
	}
	a.checks++
	for _, f := range a.n.flows {
		if f.src.sh.idx != a.shard {
			continue
		}
		scan := 0
		for _, p := range f.src.acq[f.ac].queue.items() {
			if p.flow == f {
				scan++
			}
		}
		if f.queued != scan {
			a.t.Errorf("t=%.0f µs, flow %s at %s: queued count %d, queue holds %d",
				ev.TimeUs, f.From.Name, f.src.Name, f.queued, scan)
			a.failed = true
			return
		}
	}
}

// TestPacketRecyclingSafety runs every path a packet can take between
// arrival and final fate — Block-ACK partial loss and RTS-protected
// bursts, the via-AP relay, roaming handoffs of a burst in flight and
// of a standing backlog, closed-loop injection with queue-drop fates,
// and a two-shard floor — and audits the
// recycled records afterwards, and each flow's queued count throughout.
func TestPacketRecyclingSafety(t *testing.T) {
	scenarios := []struct {
		name       string
		durationUs float64
		build      func() *Network
		check      func(t *testing.T, r Result)
	}{
		{"ampdu-rts", 5e5, func() *Network {
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
			return n
		}, func(t *testing.T, r Result) {
			if r.BlockAckRetries == 0 || r.RtsFailures == 0 || r.RetryDrops == 0 {
				t.Errorf("paths unexercised: %d Block-ACK retries, %d RTS failures, %d retry drops",
					r.BlockAckRetries, r.RtsFailures, r.RetryDrops)
			}
		}},
		{"via-ap-relay", 3e5, func() *Network {
			n := New(aggConfig(), 5)
			b1 := n.AddAP("AP1", 0, 0, 1)
			b2 := n.AddAP("AP2", 60, 0, 6)
			src := n.AddStation(b1, "src", -8, 0)
			dst := n.AddStation(b1, "dst", 8, 0)
			far := n.AddStation(b2, "far", 55, 0)
			n.Add(FlowSpec{From: src, To: dst, AC: AC_BE, Gen: Saturated{PayloadBytes: 900}})
			n.Add(FlowSpec{From: dst, To: far, AC: AC_BE, Gen: CBR{PayloadBytes: 500, IntervalUs: 300}})
			return n
		}, func(t *testing.T, r Result) {
			for _, f := range r.Flows {
				if f.Delivered == 0 {
					t.Errorf("relay flow %s delivered nothing", f.Label)
				}
			}
		}},
		{"roam-handoff", 5e6, func() *Network {
			// A saturated downlink keeps a burst to the walker on the air
			// when it switches channels, so bursts in flight are handed
			// to the new AP as well as the queued backlog.
			cfg := aggConfig()
			cfg.RoamIntervalUs = 50000
			n := New(cfg, 3)
			b1 := n.AddAP("AP1", 0, 0, 1)
			n.AddAP("AP2", 120, 0, 6)
			st := n.AddStation(b1, "walker", 5, 0)
			n.SetVelocity(st, 20, 0)
			n.Add(FlowSpec{From: b1.AP, To: st, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}})
			n.Add(FlowSpec{From: st, AC: AC_BE, Gen: CBR{PayloadBytes: 800, IntervalUs: 4000}})
			return n
		}, func(t *testing.T, r Result) {
			if r.Roams == 0 {
				t.Error("walker never roamed; the handoff path went unexercised")
			}
		}},
		{"roam-handoff-backlog", 3e6, func() *Network {
			// Single-frame exchanges with an overloaded downlink keep the
			// old AP's queue full when the walker switches channels, so
			// the handoff moves a standing backlog, not just a burst.
			cfg := DefaultConfig()
			cfg.RoamIntervalUs = 50000
			n := New(cfg, 4)
			b1 := n.AddAP("AP1", 0, 0, 1)
			n.AddAP("AP2", 120, 0, 6)
			st := n.AddStation(b1, "walker", 5, 0)
			n.SetVelocity(st, 30, 0)
			n.Add(FlowSpec{From: b1.AP, To: st, AC: AC_BE, Gen: Saturated{PayloadBytes: 1000}})
			n.Add(FlowSpec{From: b1.AP, To: st, AC: AC_BE, Gen: CBR{PayloadBytes: 1000, IntervalUs: 200}})
			return n
		}, func(t *testing.T, r Result) {
			if r.Roams == 0 || r.QueueDrops == 0 {
				t.Errorf("%d roams, %d queue drops: the backlog handoff went unexercised", r.Roams, r.QueueDrops)
			}
		}},
		{"closed-loop", 3e5, func() *Network {
			cfg := aggConfig()
			cfg.QueueLimit = 6 // small enough that queue-drop fates fire
			n := New(cfg, 23)
			b := n.AddAP("AP", 0, 0, 1)
			for i, x := range []float64{5, -5, 12} {
				st := n.AddStation(b, "dl", x, 0)
				f := n.Add(FlowSpec{From: b.AP, To: st, AC: AC_BE, Gen: Pull{SegmentBytes: 1000}})
				f.SetControl(&windowControl{f: f, segBytes: 1000, window: 4 + 4*i})
			}
			return n
		}, func(t *testing.T, r Result) {
			if r.QueueDrops == 0 {
				t.Error("no queue-drop fates; the Inject drop path went unexercised")
			}
		}},
		{"two-shards", 2e5, func() *Network {
			cfg := HtConfig(2, 40)
			cfg.Shards = 2
			return DenseGrid(cfg, 9, 2, []int{1, 5, 9}, 25, 1500)(7)
		}, func(t *testing.T, r Result) {
			if r.Shards != 2 {
				t.Errorf("ran on %d shards, want 2 (%s)", r.Shards, r.Plan.Reason)
			}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			n := sc.build()
			var audits []*queuedAudit
			n.AttachShardProbes(func(shard int) Probe {
				a := &queuedAudit{t: t, n: n, shard: shard}
				audits = append(audits, a)
				return a
			})
			r := n.Run(sc.durationUs)
			if r.Delivered == 0 {
				t.Fatal("nothing delivered")
			}
			sc.check(t, r)
			checkPacketRecords(t, n)
			for _, a := range audits {
				if a.checks == 0 {
					t.Errorf("shard %d: queued count never audited", a.shard)
				}
			}
		})
	}
}

// TestRunAllocationsScaleWithFlows is the allocation gate in a form that
// no machine can move: on a small saturated A-MPDU floor, doubling the
// simulated time must add allocations in proportion to the flows (their
// delay-sample slices growing) and not to the events fired. Without
// record recycling the difference is about 22 allocations per added
// event.
func TestRunAllocationsScaleWithFlows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	build := HighDensityHt(9, 2)
	run := func(durationUs float64) (allocs, events, flows int) {
		n := build(11)
		n.Prepare()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := n.Run(durationUs)
		runtime.ReadMemStats(&after)
		return int(after.Mallocs - before.Mallocs), int(r.EngineStats.Fired), len(r.Flows)
	}
	const horizonUs = 5e5
	a1, e1, flows := run(horizonUs)
	a2, e2, _ := run(2 * horizonUs)
	if e2-e1 < e1/2 {
		t.Fatalf("events fired %d → %d: the longer run adds too little work to measure", e1, e2)
	}
	if extra, bound := a2-a1, 4*flows+32; extra > bound {
		t.Errorf("doubling the run to %d events added %d allocations (%.2f per added event), want at most %d for %d flows",
			e2, extra, float64(extra)/float64(e2-e1), bound, flows)
	}
}
