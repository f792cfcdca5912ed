package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/netsim"
)

// perLayer are the figures a traced run reports, one set per workload;
// a layer a workload does not reach reads 0. README.md says which
// end-to-end metric each should move and on which workload.
var perLayer = []metric{
	{"netsim.build_s", "s", "lower"},
	{"netsim.prepare_s", "s", "lower"},
	{"netsim.prepare_alloc_mb", "MB", "lower"},
	{"netsim.plan_groups", "count", "higher"},
	{"netsim.plan_shards", "count", "higher"},
	{"sim.events_fired", "count", "lower"},
	{"sim.events_scheduled", "count", "lower"},
	{"sim.events_cancelled", "count", "lower"},
	{"sim.heap_high_water", "count", "lower"},
	{"sim.pool_hit_rate", "ratio", "higher"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.shard_imbalance", "ratio", "lower"},
	{"run.allocs", "count", "lower"},
	{"run.allocs_per_event", "count", "lower"},
	{"run.alloc_mb", "MB", "lower"},
	{"run.gc_cycles", "count", "lower"},
	{"run.gc_pause_s", "s", "lower"},
	{"mac.attempts", "count", "higher"},
	{"mac.delivered", "count", "higher"},
	{"mac.delivery_ratio", "ratio", "higher"},
	{"mac.collisions", "count", "lower"},
	{"mac.retry_drops", "count", "lower"},
	{"mac.queue_drops", "count", "lower"},
	{"mac.txops", "count", "higher"},
	{"mac.virtual_collisions", "count", "lower"},
	{"mac.blockack_retries", "count", "lower"},
	{"mac.mpdus_per_ampdu", "count", "higher"},
	{"medium.obss_ignores", "count", "higher"},
	{"medium.obss_reuse_tx", "count", "higher"},
	{"medium.airtime_frac", "ratio", "higher"},
	{"app.users", "count", "higher"},
	{"app.page_loads", "count", "higher"},
	{"app.rebuffers", "count", "lower"},
	{"app.voice_calls", "count", "higher"},
	{"probe.tx_start", "count", "lower"},
	{"probe.rx_outcome", "count", "lower"},
	{"probe.backoff_freeze", "count", "lower"},
	{"probe.backoff_resume", "count", "lower"},
	{"probe.nav_set", "count", "lower"},
	{"probe.txop_open", "count", "lower"},
	{"probe.block_ack", "count", "lower"},
	{"probe.enqueue", "count", "lower"},
	{"probe.queue_drop", "count", "lower"},
	{"probe.virtual_collision", "count", "lower"},
	{"probe.obss_ignore", "count", "lower"},
	{"probe.overhead_s", "s", "lower"},
	{"phy.new_s", "s", "lower"},
	{"phy.tx_s", "s", "lower"},
	{"channel.apply_s", "s", "lower"},
	{"phy.rx_bcc_s", "s", "lower"},
	{"phy.rx_ldpc_s", "s", "lower"},
	{"phy.frames", "count", "higher"},
	{"phy.frame_errors", "count", "lower"},
	{"phy.bit_errors", "count", "lower"},
}

// probeKinds are the netsim event kinds reported as probe.<kind>.
var probeKinds = []netsim.EventKind{
	netsim.EvTxStart, netsim.EvRxOutcome, netsim.EvBackoffFreeze,
	netsim.EvBackoffResume, netsim.EvNavSet, netsim.EvTxopOpen,
	netsim.EvBlockAck, netsim.EvEnqueue, netsim.EvQueueDrop,
	netsim.EvVirtualCollision, netsim.EvObssIgnore,
}

// probeCounts is a netsim.Probe that counts events by kind.
type probeCounts [netsim.NumEventKinds]int

func (c *probeCounts) OnEvent(ev netsim.Event) { c[ev.Kind]++ }

// eventCounts holds the counting probes of one network, one per shard.
type eventCounts []*probeCounts

// total sums kind over every shard.
func (ec eventCounts) total(k netsim.EventKind) int {
	sum := 0
	for _, c := range ec {
		sum += c[k]
	}
	return sum
}

// span is one timed call into a layer. Spans of one operation share Op
// and hang off its root span (Parent 0).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      string `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the spans of a run in memory until write.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens the root span of one operation and returns the handle
// the operation records its own spans through.
func (t *tracer) begin(workload string, seed int64) *opTrace {
	o := &opTrace{t: t, op: fmt.Sprintf("%s/%d", workload, seed), from: len(t.spans)}
	o.root = o.begin(workload, 0)
	return o
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opTrace records the spans of one operation. A nil *opTrace records
// nothing, so untraced operations run the same code.
type opTrace struct {
	t    *tracer
	op   string
	root int
	from int // index of the operation's first span in t.spans
}

// begin opens a span under parent and returns its id.
func (o *opTrace) begin(name string, parent int) int {
	if o == nil {
		return 0
	}
	id := len(o.t.spans) + 1
	o.t.spans = append(o.t.spans, span{ID: id, Parent: parent, Op: o.op, Name: name,
		StartNs: time.Since(o.t.epoch).Nanoseconds()})
	return id
}

// top opens a span under the operation's root span.
func (o *opTrace) top(name string) int {
	if o == nil {
		return 0
	}
	return o.begin(name, o.root)
}

// end closes span id.
func (o *opTrace) end(id int) {
	if o == nil {
		return
	}
	o.t.spans[id-1].EndNs = time.Since(o.t.epoch).Nanoseconds()
}

// seconds sums the durations of the operation's spans called name.
func (o *opTrace) seconds(name string) float64 {
	var ns int64
	for _, s := range o.t.spans[o.from:] {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// netsimLayers derives a traced netsim operation's per-layer figures
// from its Result, probe counts, spans, and the MemStats taken around
// Prepare (ms[0], ms[1]) and Run (ms[2], ms[3]).
func netsimLayers(r netsim.Result, counts *eventCounts, ms *[4]runtime.MemStats, ot *opTrace) map[string]float64 {
	es := r.EngineStats
	fired := float64(es.Fired)
	allocs := float64(ms[3].Mallocs - ms[2].Mallocs)
	maxFired := 0.0
	for _, s := range r.ShardStats {
		maxFired = max(maxFired, float64(s.Fired))
	}
	mpdus, bursts := 0, 0
	for size, n := range r.AmpduHist {
		mpdus += size * n
		bursts += n
	}
	l := map[string]float64{
		"netsim.build_s":          ot.seconds("netsim.build"),
		"netsim.prepare_s":        ot.seconds("netsim.prepare"),
		"netsim.prepare_alloc_mb": float64(ms[1].TotalAlloc-ms[0].TotalAlloc) / 1e6,
		"netsim.plan_groups":      float64(r.Plan.Groups),
		"netsim.plan_shards":      float64(r.Shards),
		"sim.events_fired":        fired,
		"sim.events_scheduled":    float64(es.Scheduled),
		"sim.events_cancelled":    float64(es.Cancelled),
		"sim.heap_high_water":     float64(es.HeapHighWater),
		"sim.pool_hit_rate":       es.PoolHitRate(),
		"sim.ns_per_event":        ot.seconds("netsim.run") * 1e9 / fired,
		"sim.shard_imbalance":     maxFired * float64(len(r.ShardStats)) / fired,
		"run.allocs":              allocs,
		"run.allocs_per_event":    allocs / fired,
		"run.alloc_mb":            float64(ms[3].TotalAlloc-ms[2].TotalAlloc) / 1e6,
		"run.gc_cycles":           float64(ms[3].NumGC - ms[2].NumGC),
		"run.gc_pause_s":          float64(ms[3].PauseTotalNs-ms[2].PauseTotalNs) / 1e9,
		"mac.attempts":            float64(r.Attempts),
		"mac.delivered":           float64(r.Delivered),
		"mac.delivery_ratio":      float64(r.Delivered) / float64(r.Attempts),
		"mac.collisions":          float64(r.Collisions),
		"mac.retry_drops":         float64(r.RetryDrops),
		"mac.queue_drops":         float64(r.QueueDrops),
		"mac.txops":               float64(r.Txops),
		"mac.virtual_collisions":  float64(r.VirtualCollisions),
		"mac.blockack_retries":    float64(r.BlockAckRetries),
		"medium.obss_ignores":     float64(r.ObssIgnores),
		"medium.obss_reuse_tx":    float64(r.ObssReuseTx),
		"medium.airtime_frac":     r.AirtimeFrac,
	}
	if bursts > 0 {
		l["mac.mpdus_per_ampdu"] = float64(mpdus) / float64(bursts)
	}
	if q := r.QoE; q != nil {
		l["app.users"] = float64(q.Users)
		l["app.page_loads"] = float64(q.PageLoads)
		l["app.rebuffers"] = float64(q.Rebuffers)
		l["app.voice_calls"] = float64(len(q.MOS))
	}
	for _, k := range probeKinds {
		l["probe."+k.String()] = float64(counts.total(k))
	}
	return l
}
