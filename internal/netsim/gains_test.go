package netsim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// gainFloor is a 16-BSS, 3-channel LargeFloor (one saturated sender
// and two keepalives per cell) at the given shard count. The roaming
// variant gives every keepalive station busy Poisson traffic too, so
// pairs without a row are read all through the run, and sets every
// other one walking, so those reads straddle the scan ticks' moves.
func gainFloor(shards int, roam bool) *Network {
	cfg := DefaultConfig()
	cfg.CSThresholdDBm = -62
	cfg.Shards = shards
	if roam {
		cfg.RoamIntervalUs = 50000
	}
	n := LargeFloor(cfg, 16, 3, 4, 1, 6, 11)(5)
	if roam {
		for i, f := range slices.Clone(n.flows) {
			if f.Gen.isSaturated() {
				continue
			}
			n.Add(FlowSpec{From: f.From, AC: AC_BE, Gen: Poisson{PayloadBytes: 200, PktPerSec: 200}})
			if i%2 == 0 {
				n.SetVelocity(f.From, 40, -25)
			}
		}
	}
	return n
}

var gainCases = []struct {
	name   string
	shards int
	roam   bool
}{{"shards1", 1, false}, {"shards2", 2, false}, {"roaming", 1, true}}

// TestGainTablesPerMedium pins the shape of the radio state: one table
// per medium (or one over every node under roaming), every node bound
// to its medium's table, and a dense row for exactly the hot nodes —
// every AP and every saturated sender — so the tables hold hot × |table|
// cells, never |table|².
func TestGainTablesPerMedium(t *testing.T) {
	for _, tc := range gainCases {
		t.Run(tc.name, func(t *testing.T) {
			n := gainFloor(tc.shards, tc.roam)
			n.Prepare()
			if got := n.Plan().Shards; got != tc.shards {
				t.Fatalf("plan runs %d shards, want %d", got, tc.shards)
			}
			if tc.roam {
				if len(n.tables) != 1 || n.tables[0].size != len(n.nodes) {
					t.Fatalf("roaming network has %d tables, want one over all %d nodes", len(n.tables), len(n.nodes))
				}
			} else if len(n.tables) != len(n.media) {
				t.Fatalf("%d tables for %d media", len(n.tables), len(n.media))
			}
			hot := make(map[*Node]bool)
			for _, b := range n.bss {
				hot[b.AP] = true
			}
			for _, f := range n.flows {
				if f.Gen.isSaturated() {
					hot[f.From] = true
				}
			}
			for _, gt := range n.tables {
				if want := len(gt.hot) * gt.size; len(gt.dbm) != want || len(gt.mw) != want {
					t.Fatalf("table of %d nodes with %d hot rows holds %d dBm / %d mW cells, want %d",
						gt.size, len(gt.hot), len(gt.dbm), len(gt.mw), want)
				}
				if len(gt.hot) >= gt.size {
					t.Fatalf("every one of %d members is hot; the floor has idle keepalives", gt.size)
				}
				for r, h := range gt.hot {
					if h.row != r*gt.size {
						t.Fatalf("%s: row offset %d, want %d", h.Name, h.row, r*gt.size)
					}
				}
			}
			for _, nd := range n.nodes {
				if nd.gt == nil || nd.gt != nd.med.gt || nd.gt.nodes[nd.gi] != nd {
					t.Fatalf("%s is not bound to its medium's table", nd.Name)
				}
				if (nd.row >= 0) != hot[nd] {
					t.Fatalf("%s: row %d, hot %v", nd.Name, nd.row, hot[nd])
				}
			}
		})
	}
}

// TestGainCacheExact holds every ordered pair's rxPowerDBm/rxPowerMw
// to the path-loss expression, bit for bit, on each read path: a hot
// row (the transmitter's or, transposed, the receiver's), a cold miss
// that computes and stores the pair, and a cold hit that returns the
// stored figure. It checks after a short run (the roaming floor's walkers
// moved on every scan tick), then again after refreshGains moved every
// seventh node — a cache entry that outlived a move fails here.
func TestGainCacheExact(t *testing.T) {
	for _, tc := range gainCases {
		t.Run(tc.name, func(t *testing.T) {
			n := gainFloor(tc.shards, tc.roam)
			n.Run(3e5)
			var c gainPathCounts
			checkGainsExact(t, n, &c)
			moved := []*Node{}
			for i := 0; i < len(n.nodes); i += 7 {
				nd := n.nodes[i]
				nd.X += 13
				nd.Y -= 5
				moved = append(moved, nd)
			}
			n.refreshGains(moved...)
			checkGainsExact(t, n, &c)
			if c.hot == 0 || c.miss == 0 || c.hit == 0 {
				t.Fatalf("read paths not all exercised: %+v", c)
			}
		})
	}
}

type gainPathCounts struct{ hot, miss, hit int }

// checkGainsExact reads every ordered member pair of every table of n
// and compares it with the expression a gain is defined by. Cold pairs
// are read twice; the first read must store the pair (if the cache did
// not hold it) and the second must find it.
func checkGainsExact(t *testing.T, n *Network, c *gainPathCounts) {
	t.Helper()
	b := n.cfg.Budget
	cached := func(gt *gainTable, key uint64) bool {
		return len(gt.cold.slots) > 0 && gt.cold.slot(key).key == key
	}
	for _, gt := range n.tables {
		for i, x := range gt.nodes {
			for j, y := range gt.nodes {
				if i == j {
					continue
				}
				lo, hi := gt.nodes[min(i, j)], gt.nodes[max(i, j)]
				want := b.TxPowerDBm + b.TxAntennaGain + b.RxAntennaGain - n.cfg.PathLoss.LossDB(math.Hypot(lo.X-hi.X, lo.Y-hi.Y))
				wantMw := mwFromDBm(want)
				key := uint64(min(i, j))<<32 | uint64(max(i, j))
				reads := 1
				switch {
				case x.row >= 0 || y.row >= 0:
					c.hot++
				case cached(gt, key):
					c.hit++
				default:
					c.miss++
					reads = 2
				}
				for r := 0; r < reads; r++ {
					if got := n.rxPowerDBm(x, y); got != want {
						t.Fatalf("%s→%s: %v dBm, path loss gives %v", x.Name, y.Name, got, want)
					}
					if got := n.rxPowerMw(x, y); got != wantMw {
						t.Fatalf("%s→%s: %v mW, path loss gives %v", x.Name, y.Name, got, wantMw)
					}
					if x.row < 0 && y.row < 0 && !cached(gt, key) {
						t.Fatalf("%s→%s: cold read did not store the pair", x.Name, y.Name)
					}
				}
				if reads == 2 {
					c.hit++
				}
			}
		}
	}
}

// TestValidateRejectsShadowing: gains are a pure function of two
// positions, so a shadowing sigma would be silently ignored; Validate
// must refuse it by name.
func TestValidateRejectsShadowing(t *testing.T) {
	for _, sd := range []float64{4, math.NaN()} {
		cfg := DefaultConfig()
		cfg.PathLoss.ShadowDB = sd
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("ShadowDB = %v accepted", sd)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "Config.PathLoss.ShadowDB") {
					t.Fatalf("panic %q does not name Config.PathLoss.ShadowDB", msg)
				}
			}()
			New(cfg, 1)
		}()
	}
}

// TestReassociateAcrossTablesPanics: without roaming each medium owns
// its table, so moving a station to another medium would leave it
// indexing the wrong table; reassociate must refuse loudly.
func TestReassociateAcrossTablesPanics(t *testing.T) {
	n := New(DefaultConfig(), 3)
	b1 := n.AddAP("AP1", 0, 0, 1)
	b2 := n.AddAP("AP2", 40, 0, 6)
	st := n.AddStation(b1, "walker", 5, 0)
	n.build()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-table reassociate did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "RoamIntervalUs") {
			t.Fatalf("panic %q does not point at Config.RoamIntervalUs", msg)
		}
	}()
	st.reassociate(b2)
}
