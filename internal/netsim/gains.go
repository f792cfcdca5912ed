package netsim

import (
	"runtime"
	"slices"
	"sync"
)

// Radio state: the received-power figures the MAC reads.
//
// A gain is a pure function of two positions — the link budget minus
// the path loss over their distance — so the state kept here is only a
// cache of it, shaped by who reads it. A frame only ever reaches the
// nodes of its own medium, so there is one gainTable per medium. Under
// roaming (Config.RoamIntervalUs > 0) a station may switch media
// mid-run, so build makes a single table over every node and points
// every medium at it — the same code with different membership. Within
// a table:
//
//   - Hot members — every AP and the From node of every saturated flow —
//     get a dense dbm/mw row over the table, filled at Prepare. One of
//     them is an endpoint of nearly every frame, so the interference
//     crossing in medium.start/finish and the carrier-sense scans read
//     array slots.
//   - Every other pair lives in the table's cold cache, which starts
//     empty and computes a pair on its first read.
//
// Nothing is sized N²: the rows cost hot × |table| cells and the cache
// holds the cold pairs actually read.

// gainTable holds the received powers among one set of nodes. Members
// are numbered locally (Node.gi) in ascending node-id order, so a table
// over every node is indexed by node id.
//
// hot lists the members with a dense row, in row order; a member's
// Node.row is the offset of its row in dbm and mw (row index × size),
// or -1. dbm[h.row+j] is the power at member j when hot member h
// transmits; mw is the same figure in milliwatts, kept because the
// interference crossing sums powers linearly for every concurrent pair
// and the dB→mW exponential is a top hot-loop cost when recomputed per
// frame. A row's own diagonal slot stays 0.
type gainTable struct {
	nodes []*Node
	size  int
	hot   []*Node
	dbm   []float64
	mw    []float64
	cold  gainCache
}

// gainCache holds a table's pairs that no hot row covers: open
// addressing with linear probing over a power-of-two slot array. The
// key packs the member pair as lo<<32 | hi with lo < hi, so it is never
// 0, which marks an empty slot; the hash is multiplicative. The cache
// starts empty and doubles at half load, so it allocates O(log entries)
// slot arrays per table over a run.
//
// Reads fill the cache, and that needs no locking: a table belongs to
// one medium and a medium to one shard (planShards), so only that
// shard's goroutine ever reads it. The one table a roaming network
// shares across its media is no exception, because mobility forces a
// single shard.
type gainCache struct {
	slots []gainSlot
	used  int
	shift uint
}

type gainSlot struct {
	key     uint64
	dbm, mw float64
}

// gainHashMul is 2^64 divided by the golden ratio (Fibonacci hashing).
const gainHashMul = 0x9E3779B97F4A7C15

// minColdSlots is the slot count of a cache's first array.
const minColdSlots = 16

// slot returns the slot holding key, or the empty slot where key
// belongs. The cache must not be empty.
func (c *gainCache) slot(key uint64) *gainSlot {
	mask := len(c.slots) - 1
	for k := int((key * gainHashMul) >> c.shift); ; k = (k + 1) & mask {
		if s := &c.slots[k]; s.key == key || s.key == 0 {
			return s
		}
	}
}

// grow doubles the slot array (or makes the first one) and reinserts
// every entry.
func (c *gainCache) grow() {
	old := c.slots
	size := max(2*len(old), minColdSlots)
	c.slots = make([]gainSlot, size)
	c.shift = 64
	for s := size; s > 1; s >>= 1 {
		c.shift--
	}
	for _, s := range old {
		if s.key != 0 {
			*c.slot(s.key) = s
		}
	}
}

// reset drops every entry and keeps the slot array.
func (c *gainCache) reset() {
	clear(c.slots)
	c.used = 0
}

// coldGain returns the slot holding the gain between distinct nodes a
// and b in their table's cache, computing and storing it on a miss. The
// pointer is valid until the next miss.
func coldGain(a, b *Node) *gainSlot {
	t := a.gt
	lo, hi := min(a.gi, b.gi), max(a.gi, b.gi)
	key := uint64(lo)<<32 | uint64(hi)
	c := &t.cold
	var s *gainSlot
	if len(c.slots) > 0 {
		if s = c.slot(key); s.key == key {
			return s
		}
	}
	if 2*(c.used+1) > len(c.slots) {
		c.grow()
		s = c.slot(key)
	}
	p := a.net.pairGainDBm(t, lo, hi)
	*s = gainSlot{key: key, dbm: p, mw: mwFromDBm(p)}
	c.used++
	return s
}

// pairGainDBm computes the received power between members lo < hi of
// t from their distance — the one place a gain is evaluated. Every read
// path asks in ascending member order, which keeps the figures exactly
// symmetric.
func (n *Network) pairGainDBm(t *gainTable, lo, hi int) float64 {
	b := n.cfg.Budget
	loss := n.cfg.PathLoss.LossDB(dist(t.nodes[lo], t.nodes[hi]))
	return b.TxPowerDBm + b.TxAntennaGain + b.RxAntennaGain - loss
}

// buildTables gives every medium its gain table and fills the hot rows:
// one table per medium, or one over every node when roaming can move
// stations between media.
func (n *Network) buildTables() {
	hot := make([]bool, len(n.nodes))
	for _, b := range n.bss {
		hot[b.AP.id] = true
	}
	for _, f := range n.flows {
		if f.Gen.isSaturated() {
			hot[f.From.id] = true
		}
	}
	if n.cfg.RoamIntervalUs > 0 {
		t := newGainTable(n.nodes, hot)
		for _, m := range n.media {
			m.gt = t
		}
		n.tables = []*gainTable{t}
	} else {
		n.tables = make([]*gainTable, len(n.media))
		for i, m := range n.media {
			members := slices.Clone(m.nodes)
			slices.SortFunc(members, func(a, b *Node) int { return a.id - b.id })
			m.gt = newGainTable(members, hot)
			n.tables[i] = m.gt
		}
	}
	n.fillGains()
}

// newGainTable makes the table over members (ascending node id), binds
// each member to it, and allocates a row for each member hot marks.
func newGainTable(members []*Node, hot []bool) *gainTable {
	size := len(members)
	rows := 0
	for _, nd := range members {
		if hot[nd.id] {
			rows++
		}
	}
	t := &gainTable{nodes: members, size: size, hot: make([]*Node, 0, rows),
		dbm: make([]float64, rows*size), mw: make([]float64, rows*size)}
	for i, nd := range members {
		nd.gt, nd.gi, nd.row = t, i, -1
		if hot[nd.id] {
			nd.row = len(t.hot) * size
			t.hot = append(t.hot, nd)
		}
	}
	return t
}

// fillGains computes every hot row of every table, striped across
// cores: the transcendental bill (path-loss log, dB→mW exponential) per
// cell dominates setup on 1000+ node floors, and the per-pair math is
// pure, so the fan-out is bit-for-bit deterministic.
func (n *Network) fillGains() {
	var rows []*Node
	cells := 0
	for _, t := range n.tables {
		rows = append(rows, t.hot...)
		cells += len(t.hot) * t.size
	}
	workers := min(runtime.GOMAXPROCS(0), 8)
	if cells < 256*255/2 || workers < 2 {
		for _, nd := range rows {
			n.fillRow(nd)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(rows); k += workers {
				n.fillRow(rows[k])
			}
		}(w)
	}
	wg.Wait()
}

// fillRow computes hot member nd's row over its table.
func (n *Network) fillRow(nd *Node) {
	t, i := nd.gt, nd.gi
	dbm, mw := t.dbm[nd.row:nd.row+t.size], t.mw[nd.row:nd.row+t.size]
	for j := range t.nodes {
		if j != i {
			p := n.pairGainDBm(t, min(i, j), max(i, j))
			dbm[j], mw[j] = p, mwFromDBm(p)
		}
	}
}

// refreshGains brings the radio state up to date after nodes moved:
// each moved node's own row and its slot in every hot row are
// recomputed, and the cold caches and the shards' rate choices (both
// derived from gains) are dropped — once per call, however many nodes
// moved, which is why roamScan passes a whole tick's moves at once.
func (n *Network) refreshGains(moved ...*Node) {
	if len(moved) == 0 {
		return
	}
	for _, sh := range n.shards {
		clear(sh.modeCache)
	}
	for _, nd := range moved {
		t, i := nd.gt, nd.gi
		if nd.row >= 0 {
			n.fillRow(nd)
		}
		for _, h := range t.hot {
			if h != nd {
				p := n.pairGainDBm(t, min(i, h.gi), max(i, h.gi))
				t.dbm[h.row+i], t.mw[h.row+i] = p, mwFromDBm(p)
			}
		}
	}
	for _, t := range n.tables {
		t.cold.reset()
	}
}

// rxPowerDBm returns the received power at node rx when tx transmits:
// from tx's row, else from rx's row (gains are exactly symmetric), else
// from the cold cache. Both must share a gain table, which holds for
// any two nodes on one medium. The transmitter's row is the common case
// and stays inlinable; the rest is in rxRowDBm.
func (n *Network) rxPowerDBm(tx, rx *Node) float64 {
	if tx.row >= 0 {
		return tx.gt.dbm[tx.row+rx.gi]
	}
	return rxRowDBm(tx, rx)
}

// rxRowDBm is rxPowerDBm for a transmitter without a row. Kept out of
// line so the row read above stays within the inlining budget.
//
//go:noinline
func rxRowDBm(tx, rx *Node) float64 {
	if rx.row >= 0 {
		return rx.gt.dbm[rx.row+tx.gi]
	}
	return coldGain(tx, rx).dbm
}

// rxPowerMw is the same figure in milliwatts, stored beside the dBm
// figure so the per-frame interference crossing never pays the
// dB→linear exponential.
func (n *Network) rxPowerMw(tx, rx *Node) float64 {
	if tx.row >= 0 {
		return tx.gt.mw[tx.row+rx.gi]
	}
	return rxRowMw(tx, rx)
}

// rxRowMw is rxPowerMw for a transmitter without a row.
//
//go:noinline
func rxRowMw(tx, rx *Node) float64 {
	if rx.row >= 0 {
		return rx.gt.mw[rx.row+tx.gi]
	}
	return coldGain(tx, rx).mw
}
