package netsim

import (
	"fmt"
	"strings"
	"testing"
)

// TestGainTablesPerMedium pins the shape of the radio state on a
// multi-channel floor with shadowing on: one table per medium holding
// exactly Σ|medium|² cells (or one all-node table under roaming), every
// node bound to its medium's table, tables exactly symmetric (the
// row-local reads in medium.start rely on it) both after build and
// after refreshGains moves, and every entry equal to the figure the
// all-node table of the roaming build holds for the same pair — the
// shadowing draws come from the same stream, so a per-medium table that
// copied the wrong pair's draw would show up here.
func TestGainTablesPerMedium(t *testing.T) {
	floor := func(shards int, roam bool) *Network {
		cfg := DefaultConfig()
		cfg.CSThresholdDBm = -62
		cfg.PathLoss.ShadowDB = 4
		cfg.Shards = shards
		if roam {
			cfg.RoamIntervalUs = 100000
		}
		n := LargeFloor(cfg, 16, 3, 4, 1, 6, 11)(5)
		n.Prepare()
		return n
	}
	// move shifts every seventh node and refreshes its gains.
	move := func(n *Network) {
		for i := 0; i < len(n.nodes); i += 7 {
			nd := n.nodes[i]
			nd.X += 13
			nd.Y -= 5
			n.refreshGains(nd)
		}
	}
	for _, tc := range []struct {
		name   string
		shards int
		roam   bool
	}{{"shards1", 1, false}, {"shards2", 2, false}, {"roaming", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			n, ref := floor(tc.shards, tc.roam), floor(1, true)
			if got := n.Plan().Shards; got != tc.shards {
				t.Fatalf("plan runs %d shards, want %d", got, tc.shards)
			}
			cells, want := 0, 0
			for _, gt := range n.tables {
				if len(gt.mw) != len(gt.dbm) {
					t.Fatalf("table of %d nodes: %d mw cells, %d dbm cells", gt.size, len(gt.mw), len(gt.dbm))
				}
				cells += len(gt.dbm)
			}
			if tc.roam {
				if len(n.tables) != 1 || n.tables[0].size != len(n.nodes) {
					t.Fatalf("roaming network has %d tables, want one over all %d nodes", len(n.tables), len(n.nodes))
				}
				want = len(n.nodes) * len(n.nodes)
			} else {
				if len(n.tables) != len(n.media) {
					t.Fatalf("%d tables for %d media", len(n.tables), len(n.media))
				}
				for _, m := range n.media {
					want += len(m.nodes) * len(m.nodes)
				}
			}
			if cells != want {
				t.Fatalf("tables hold %d cells, want %d", cells, want)
			}
			for _, nd := range n.nodes {
				if nd.gt == nil || nd.gt != nd.med.gt || nd.gt.nodes[nd.gi] != nd {
					t.Fatalf("%s is not bound to its medium's table", nd.Name)
				}
			}
			checkGainTables(t, n, ref)
			move(n)
			move(ref)
			checkGainTables(t, n, ref)
		})
	}
}

// checkGainTables asserts every table of n is exactly symmetric and
// holds the same figures ref's all-node table holds for those pairs.
func checkGainTables(t *testing.T, n, ref *Network) {
	t.Helper()
	for _, gt := range n.tables {
		for i, a := range gt.nodes {
			for j, b := range gt.nodes {
				ij, ji := i*gt.size+j, j*gt.size+i
				if gt.dbm[ij] != gt.dbm[ji] || gt.mw[ij] != gt.mw[ji] {
					t.Fatalf("%s↔%s asymmetric: %v/%v dBm, %v/%v mW",
						a.Name, b.Name, gt.dbm[ij], gt.dbm[ji], gt.mw[ij], gt.mw[ji])
				}
				ra, rb := ref.nodes[a.id], ref.nodes[b.id]
				if i != j && (gt.dbm[ij] != ref.rxPowerDBm(ra, rb) || gt.mw[ij] != ref.rxPowerMw(ra, rb)) {
					t.Fatalf("%s→%s: %v dBm, the all-node table holds %v", a.Name, b.Name,
						gt.dbm[ij], ref.rxPowerDBm(ra, rb))
				}
			}
		}
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
