package netsim

import (
	"runtime"
	"slices"
	"sync"
)

// Radio state: the received-power figures the MAC reads.
//
// A frame only ever reaches the nodes of its own medium, so the
// simulator keeps one gainTable per medium instead of one N×N matrix for
// the whole floor: the state is Σ|medium|², not N². Under roaming
// (Config.RoamIntervalUs > 0) a station may switch media mid-run, so
// build makes a single table over every node and points every medium at
// it — the same code with different membership.

// gainTable holds the received powers among one set of nodes. Members
// are numbered locally (Node.gi) in ascending node-id order, so a table
// over every node is indexed by node id.
//
// dbm[i*size+j] is the power at member j when member i transmits; mw is
// the same figure in milliwatts, cached because the interference
// crossing in medium.start/finish sums powers linearly for every
// concurrent pair and the dB→mW exponential was a top hot-loop cost
// when recomputed per frame for gains that only change on a move. Both
// are exactly symmetric: every fill writes [i][j] and [j][i] from one
// computed figure, which lets medium.start read the row of whichever
// endpoint its loop holds fixed. shadow is each member pair's symmetric
// shadowing draw as a packed upper triangle (triIndex), kept so
// refreshGains can recompute a moved node's row; nil when shadowing is
// off.
type gainTable struct {
	nodes  []*Node
	size   int
	dbm    []float64
	mw     []float64
	shadow []float64
}

// triIndex is the position of pair (i, j), i < j, in a packed upper
// triangle over size members laid out row by row: (0,1), (0,2), …,
// (1,2), ….
func triIndex(size, i, j int) int { return i*(2*size-i-1)/2 + j - i - 1 }

// shadowDB is the shadowing draw of member pair (i, j), i < j.
func (t *gainTable) shadowDB(i, j int) float64 {
	if t.shadow == nil {
		return 0
	}
	return t.shadow[triIndex(t.size, i, j)]
}

// drawShadows draws every node pair's shadowing value in the order the
// simulator has always drawn them (i ascending, then j > i), into a
// packed triangle over all nodes, and records the most favorable (most
// negative) draw in n.minShadowDB. The triangle lives only until
// buildTables has copied each table's pairs out of it. It is nil, and
// no randomness is consumed, when shadowing is off.
func (n *Network) drawShadows() []float64 {
	n.minShadowDB = 0
	sd := n.cfg.PathLoss.ShadowDB
	if sd <= 0 {
		return nil
	}
	nn := len(n.nodes)
	tri := make([]float64, nn*(nn-1)/2)
	for k := range tri {
		sh := n.src.Gaussian(0, sd)
		tri[k] = sh
		if sh < n.minShadowDB {
			n.minShadowDB = sh
		}
	}
	return tri
}

// buildTables gives every medium its gain table and fills it: one table
// per medium, or one over every node when roaming can move stations
// between media. all is drawShadows' triangle over every node.
func (n *Network) buildTables(all []float64) {
	if n.cfg.RoamIntervalUs > 0 {
		t := n.newGainTable(n.nodes, all)
		for _, m := range n.media {
			m.gt = t
		}
		n.tables = []*gainTable{t}
	} else {
		n.tables = make([]*gainTable, len(n.media))
		for i, m := range n.media {
			members := slices.Clone(m.nodes)
			slices.SortFunc(members, func(a, b *Node) int { return a.id - b.id })
			m.gt = n.newGainTable(members, all)
			n.tables[i] = m.gt
		}
	}
	n.fillGains()
}

// newGainTable allocates the table over members (ascending node id),
// binds each member to it, and copies the members' pairs out of all. A
// table over every node shares all instead of copying it.
func (n *Network) newGainTable(members []*Node, all []float64) *gainTable {
	size := len(members)
	t := &gainTable{nodes: members, size: size,
		dbm: make([]float64, size*size), mw: make([]float64, size*size)}
	for i, nd := range members {
		nd.gt, nd.gi = t, i
	}
	switch {
	case all == nil:
	case size == len(n.nodes):
		t.shadow = all
	default:
		t.shadow = make([]float64, size*(size-1)/2)
		k := 0
		for i, a := range members {
			for _, b := range members[i+1:] {
				t.shadow[k] = all[triIndex(len(n.nodes), a.id, b.id)]
				k++
			}
		}
	}
	return t
}

// fillGains computes every table's received powers: each unordered pair
// exactly once (the per-node refreshGains would do every pair twice),
// with the rows of all tables striped across cores — the transcendental
// bill (path-loss log, dB→mW exponential) per pair dominates setup on
// 1000+ node floors, and the per-pair math is pure, so the fan-out is
// bit-for-bit deterministic. The shadowing draws are already fixed at
// this point, so no randomness crosses a goroutine boundary.
func (n *Network) fillGains() {
	type row struct {
		t *gainTable
		i int
	}
	rows := make([]row, 0, len(n.nodes))
	pairs := 0
	for _, t := range n.tables {
		for i := range t.nodes {
			rows = append(rows, row{t, i})
		}
		pairs += t.size * (t.size - 1) / 2
	}
	fillRow := func(r row) {
		t, i := r.t, r.i
		for j := i + 1; j < t.size; j++ {
			n.setGain(t, i, j)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	if pairs < 256*255/2 || workers < 2 {
		for _, r := range rows {
			fillRow(r)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(rows); k += workers {
				fillRow(rows[k])
			}
		}(w)
	}
	wg.Wait()
}

// refreshGains recomputes the moved node's row and column of its table.
func (n *Network) refreshGains(nd *Node) {
	for _, sh := range n.shards {
		clear(sh.modeCache)
	}
	t, i := nd.gt, nd.gi
	for j := range t.nodes {
		if j != i {
			n.setGain(t, min(i, j), max(i, j))
		}
	}
}

// setGain computes the received power between members i < j of t from
// their distance and shadowing, and stores it at both [i][j] and
// [j][i] — the one place gains are written, which keeps every table
// exactly symmetric.
func (n *Network) setGain(t *gainTable, i, j int) {
	b := n.cfg.Budget
	loss := n.cfg.PathLoss.LossDB(dist(t.nodes[i], t.nodes[j])) + t.shadowDB(i, j)
	p := b.TxPowerDBm + b.TxAntennaGain + b.RxAntennaGain - loss
	t.dbm[i*t.size+j], t.dbm[j*t.size+i] = p, p
	mw := mwFromDBm(p)
	t.mw[i*t.size+j], t.mw[j*t.size+i] = mw, mw
}

// rxPowerDBm returns the received power at node rx when tx transmits.
// Both must share a gain table, which holds for any two nodes on one
// medium.
func (n *Network) rxPowerDBm(tx, rx *Node) float64 {
	return tx.gt.dbm[tx.gi*tx.gt.size+rx.gi]
}

// rxPowerMw is the same figure in milliwatts, cached at gain-refresh
// time so the per-frame interference crossing never pays the dB→linear
// exponential.
func (n *Network) rxPowerMw(tx, rx *Node) float64 {
	return tx.gt.mw[tx.gi*tx.gt.size+rx.gi]
}
