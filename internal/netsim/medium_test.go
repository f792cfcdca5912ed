package netsim

import (
	"fmt"
	"testing"

	"repro/internal/linkmodel"
)

// Regression for the finish-time interference asymmetry: interference
// used to be subtracted at the rx power computed WHEN THE FRAME ENDED,
// so an endpoint that roamed mid-frame unwound a different gain than
// was added at start, leaving residue in (or over-draining) the
// victim's running interference sum. finish must subtract exactly the
// snapshotted milliwatts.
func TestFinishUnwindsSnapshotAfterMidFrameMove(t *testing.T) {
	cfg := DefaultConfig()
	// Mid-frame gain changes only happen when roamScan runs; that is
	// also what arms the snapshot path (a static floor skips the
	// bookkeeping and recomputes from the unchanged gain table).
	cfg.RoamIntervalUs = 100000
	n := New(cfg, 1)
	b1 := n.AddAP("AP1", 0, 0, 1)
	b2 := n.AddAP("AP2", 200, 0, 1)
	s1 := n.AddStation(b1, "s1", 10, 0)
	s2 := n.AddStation(b2, "s2", 210, 0)
	n.build()
	m := n.media[0]

	// Two concurrent frames on far-apart links: s1→AP1 and s2→AP2.
	tr1 := &transmission{kind: FrameData, tx: s1, rx: b1.AP, mode: n.robustMode()}
	tr2 := &transmission{kind: FrameData, tx: s2, rx: b2.AP, mode: n.robustMode()}
	m.start(tr1)
	m.start(tr2)
	added := mwFromDBm(n.rxPowerDBm(s1, b2.AP))
	if tr2.curIntfMw != added || tr2.curIntfMw <= 0 {
		t.Fatalf("tr2 interference %v mw, want the s1→AP2 crossing %v", tr2.curIntfMw, added)
	}

	// s1 walks far away while its frame is still on the air: the gain
	// table refreshes, so a finish-time recomputation would subtract a
	// much smaller figure than was added.
	s1.X = 2000
	n.refreshGains(s1)
	if m.grid != nil {
		m.grid.update(s1)
	}
	m.finish(tr1)
	if tr2.curIntfMw != 0 {
		t.Fatalf("after tr1 finished, tr2 still carries %v mw of residue (snapshot not used)", tr2.curIntfMw)
	}
	m.finish(tr2)
}

// A victim that finishes before its interferer must not be touched by
// the interferer's later unwind (its SINR verdict is already recorded,
// and its slice of the active list is gone).
func TestFinishSkipsAlreadyFinishedVictims(t *testing.T) {
	cfg := DefaultConfig()
	n := New(cfg, 2)
	b1 := n.AddAP("AP1", 0, 0, 1)
	b2 := n.AddAP("AP2", 150, 0, 1)
	s1 := n.AddStation(b1, "s1", 10, 0)
	s2 := n.AddStation(b2, "s2", 160, 0)
	n.build()
	m := n.media[0]

	tr1 := &transmission{kind: FrameData, tx: s1, rx: b1.AP, mode: n.robustMode()}
	tr2 := &transmission{kind: FrameData, tx: s2, rx: b2.AP, mode: n.robustMode()}
	m.start(tr1)
	m.start(tr2)
	m.finish(tr2) // victim ends first
	residue := tr2.curIntfMw
	m.finish(tr1)
	if tr2.curIntfMw != residue {
		t.Fatalf("finished frame's interference sum moved from %v to %v after a late unwind", residue, tr2.curIntfMw)
	}
	if len(m.active) != 0 {
		t.Fatalf("%d transmissions left on the air", len(m.active))
	}
}

// TestLateCarrierSenseMatchesEager pins the lazy carrier-sense paths to
// the start-time scan on a bonded medium whose spans overlap only
// partly: BSSs on channels 1, 2 and 3 bond into {1,2}, {2,3} and {3,4},
// one spectrally connected medium. A 40 MHz frame on {1,2} is heard in
// full on {1,2}, 3 dB weaker on {2,3}, and not at all on {3,4}. A node
// that joins carrier sense after the frame started (joinCS), or a
// tracked station that reassociates to another BSS on the same medium
// mid-frame, must end with the busyCount and the place in the frame's
// sensed list that a twin tracked from the start gets from
// medium.start.
func TestLateCarrierSenseMatchesEager(t *testing.T) {
	// build lays out the floor with the walker in BSS walkerIn (index
	// 0–2, channels 1–3); every node sits within a few tens of metres,
	// far above the carrier-sense threshold, so only the bonded span
	// rule decides who hears the frame.
	build := func(walkerIn int) (*Network, []*BSS, *Node) {
		n := New(HtConfig(1, 40), 5)
		bs := []*BSS{n.AddAP("AP1", 0, 0, 1), n.AddAP("AP2", 10, 0, 2), n.AddAP("AP3", 20, 0, 3)}
		n.AddStation(bs[0], "s1", 2, 0)
		walker := n.AddStation(bs[walkerIn], "walker", 12, 0)
		n.AddStation(bs[1], "s2", 14, 0)
		n.AddStation(bs[2], "s3", 22, 0)
		n.build()
		if len(n.media) != 1 {
			t.Fatalf("%d media, want the one bonded component", len(n.media))
		}
		return n, bs, walker
	}
	// frame puts a 40 MHz AP1→s1 frame on the air.
	frame := func(n *Network, bs []*BSS) *transmission {
		var mode linkmodel.Mode
		for _, md := range n.cfg.Modes {
			if md.BandwidthMHz > 20 {
				mode = md
			}
		}
		s1 := n.nodes[3]
		tr := &transmission{kind: FrameData, tx: bs[0].AP, rx: s1, mode: mode}
		n.media[0].start(tr)
		if tr.chW != 2 {
			t.Fatalf("frame spans %d slots, want 2", tr.chW)
		}
		return tr
	}
	trackAll := func(n *Network) {
		for _, nd := range n.nodes {
			nd.joinCS()
		}
	}
	// state renders what carrier sense recorded: each node's busyCount
	// and the frame's sensed list, in order.
	state := func(n *Network, tr *transmission) string {
		s := ""
		for _, nd := range n.nodes {
			s += fmt.Sprintf("%s:%d ", nd.Name, nd.busyCount)
		}
		s += "| sensed"
		for _, nd := range tr.sensed {
			s += " " + nd.Name
		}
		return s
	}
	// eager is the twin tracked from the start with the walker already
	// in BSS walkerIn. leftBss, unless -1, is the BSS a roam leaves: the
	// downlink handoff retires its AP from carrier sense, as it has
	// nothing queued, so the twin's copy leaves too.
	eager := func(walkerIn, leftBss int) string {
		n, bs, _ := build(walkerIn)
		trackAll(n)
		tr := frame(n, bs)
		if leftBss >= 0 {
			bs[leftBss].AP.maybeLeaveCS()
		}
		return state(n, tr)
	}

	t.Run("late-join", func(t *testing.T) {
		want := eager(1, -1)
		n, bs, _ := build(1)
		tr := frame(n, bs)
		for i := len(n.nodes) - 1; i >= 0; i-- {
			n.nodes[i].joinCS()
		}
		if got := state(n, tr); got != want {
			t.Fatalf("late joiners\n got %s\nwant %s", got, want)
		}
	})
	for _, c := range []struct{ from, to int }{{1, 2}, {2, 1}} {
		t.Run(fmt.Sprintf("reassociate-ch%d-to-ch%d", c.from+1, c.to+1), func(t *testing.T) {
			want := eager(c.to, c.from)
			n, bs, walker := build(c.from)
			trackAll(n)
			tr := frame(n, bs)
			walker.reassociate(bs[c.to])
			if got := state(n, tr); got != want {
				t.Fatalf("roamed mid-frame\n got %s\nwant %s", got, want)
			}
		})
	}
}
