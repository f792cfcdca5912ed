package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"repro/internal/channel"
	"repro/internal/netsim"
	"repro/internal/netsim/app"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
)

// workload is one benchmark input. op runs one operation on the seed;
// with a non-nil trace it also records spans and per-layer figures.
type workload struct {
	name string
	op   func(seed int64, ot *opTrace) opResult
}

// The four workloads. BENCHMARK.json and README.md say why each was
// chosen and which layers it stresses or bypasses.
var workloads = []workload{
	{"dense-floor", denseFloor().op},
	{"reuse-floor-ht", reuseFloorHt().op},
	{"apartment-qoe", apartmentQoe().op},
	{"mimo-link", mimoLinkWorkload().op},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// floor is a netsim workload: one operation builds the scenario for a
// seed, prepares it and runs it.
type floor struct {
	build      func(seed int64) *netsim.Network
	durationUs float64
	// sharded attaches one counting probe per shard; a single
	// AttachProbe would plan the run onto one engine.
	sharded bool
	// check adds the workload's own output checks to checkResult's.
	check func(netsim.Result) []string
}

// denseFloor is the E27 floor: 100 BSSs of 40 stations on one channel,
// -62 dBm carrier sense, legacy OFDM rates, 2 s.
func denseFloor() floor {
	cfg := netsim.DefaultConfig()
	cfg.CSThresholdDBm = -62
	return floor{build: netsim.LargeFloor(cfg, 100, 40, 10, 1), durationUs: 2e6}
}

// reuseFloorHt is the E28 topology (1024 BSSs of 3 stations) with the
// 2-stream 40 MHz HT ladder, Minstrel, A-MPDU, OBSS-PD at -72 dBm and
// two shards, 0.2 s.
func reuseFloorHt() floor {
	cfg := netsim.HtConfig(2, 40)
	cfg.ObssPdThresholdDBm = -72
	cfg.Shards = 2
	return floor{
		build:      netsim.LargeFloor(cfg, 1024, 3, 32, 1, 5, 9, 36, 40, 44, 48, 52),
		durationUs: 2e5,
		sharded:    true,
		check: func(r netsim.Result) []string {
			var p []string
			if r.Shards != 2 {
				p = append(p, fmt.Sprintf("Shards = %d, want 2 (%s)", r.Shards, r.Plan.Reason))
			}
			if r.ObssIgnores <= 0 {
				p = append(p, fmt.Sprintf("ObssIgnores = %d, want > 0", r.ObssIgnores))
			}
			return p
		},
	}
}

// apartmentQoe is 144 closed-loop video/web/voice users in 9 BSSs on
// 1/6/11 with EDCA, 30 s.
func apartmentQoe() floor {
	cfg := netsim.DefaultConfig()
	edca := netsim.DefaultEdca(cfg.Dcf, cfg.QueueLimit)
	cfg.Edca = &edca
	return floor{
		build:      app.ApartmentBlock(cfg, 9, 16),
		durationUs: 30e6,
		check: func(r netsim.Result) []string {
			if r.QoE == nil || r.QoE.Users != 144 {
				return []string{fmt.Sprintf("QoE = %+v, want 144 users", r.QoE)}
			}
			return nil
		},
	}
}

func (f floor) op(seed int64, ot *opTrace) opResult {
	runtime.GC()
	// ms[0..1] bracket Prepare and ms[2..3] Run; an untraced run reads
	// only ms[2], for heap_mb.
	var ms [4]runtime.MemStats
	start := time.Now()
	sp := ot.top("netsim.build")
	n := f.build(seed)
	ot.end(sp)
	build := time.Since(start)
	var counts *eventCounts
	if ot != nil {
		counts = attachCounters(n, f.sharded)
		runtime.ReadMemStats(&ms[0])
	}
	start = time.Now()
	sp = ot.top("netsim.prepare")
	n.Prepare()
	ot.end(sp)
	setup := build + time.Since(start)
	if ot != nil {
		runtime.ReadMemStats(&ms[1])
	}
	runtime.GC()
	runtime.ReadMemStats(&ms[2])
	start = time.Now()
	sp = ot.top("netsim.run")
	res := n.Run(f.durationUs)
	ot.end(sp)
	run := time.Since(start)
	if ot != nil {
		runtime.ReadMemStats(&ms[3])
	}

	o := opResult{setupS: setup.Seconds(), runS: run.Seconds(),
		heapMB: float64(ms[2].HeapAlloc) / 1e6, attempted: 1, fingerprint: fingerprintResult(res)}
	o.problems = checkResult(res)
	if f.check != nil {
		o.problems = append(o.problems, f.check(res)...)
	}
	if len(o.problems) > 0 {
		o.failed = 1
	}
	if ot != nil {
		o.layers = netsimLayers(res, counts, &ms, ot)
	}
	// The probe layer promises a traced run equal to an untraced one;
	// only the engine introspection may differ.
	res.EngineStats, res.ShardStats = sim.Stats{}, nil
	o.output = res
	return o
}

// attachCounters hangs counting probes on n: one per shard when the
// run is sharded (Prepare fills the list), else a single one.
func attachCounters(n *netsim.Network, sharded bool) *eventCounts {
	ec := &eventCounts{}
	if !sharded {
		c := &probeCounts{}
		n.AttachProbe(c)
		*ec = append(*ec, c)
		return ec
	}
	n.AttachShardProbes(func(int) netsim.Probe {
		c := &probeCounts{}
		*ec = append(*ec, c)
		return c
	})
	return ec
}

// mimoLink is the 802.11n link-level Monte-Carlo: one operation builds
// the PHY for each code (setup) and runs frames at every SNR point for
// each (run).
type mimoLink struct {
	mcs, payloadBytes, frames int
	snrsDB                    []float64
	channel                   phy.MimoChannelFactory
}

// mimoCodes are the channel codes a sweep covers, in sweep order
// (BCC first; op relies on it).
var mimoCodes = []struct {
	name string
	ldpc bool
}{{"bcc", false}, {"ldpc", true}}

// mimoLinkWorkload is 2x2 MCS 12 over a 4-tap multipath channel with
// 500-byte payloads, SNR points spanning the waterfall.
func mimoLinkWorkload() mimoLink {
	return mimoLink{mcs: 12, payloadBytes: 500, frames: 20,
		snrsDB: []float64{14, 20, 26}, channel: phy.MultipathMimoChannel(4, 0.5)}
}

func (m mimoLink) op(seed int64, ot *opTrace) opResult {
	runtime.GC()
	start := time.Now()
	phys := make([]*phy.Ht, len(mimoCodes))
	for i, c := range mimoCodes {
		sp := ot.top("phy.new")
		h, err := phy.NewHt(phy.HtConfig{MCS: m.mcs, LDPC: c.ldpc})
		ot.end(sp)
		if err != nil {
			panic(err) // the configuration is fixed, so only a bug gets here
		}
		phys[i] = h
	}
	setup := time.Since(start)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	src := rng.New(seed)
	start = time.Now()
	var points []phy.PERResult
	for i, c := range mimoCodes {
		rxSpan := "phy.rx_" + c.name
		for _, snr := range m.snrsDB {
			sp := ot.top("phy.measure")
			points = append(points, m.frameLoop(phys[i], snr, src.Split(), ot, sp, rxSpan))
			ot.end(sp)
		}
	}
	run := time.Since(start)

	nSNR := len(m.snrsDB)
	// Only the BCC half is compared between the traced and untraced
	// runs: fec.NewLDPC draws its base-matrix rows in map order, so
	// every phy.NewHt builds a different LDPC code and the LDPC error
	// counts differ between two operations on the same seed. The
	// fingerprint shows this as an LDPC digest that changes run to run.
	o := opResult{setupS: setup.Seconds(), runS: run.Seconds(), heapMB: float64(ms.HeapAlloc) / 1e6,
		attempted: len(points), output: points[:nSNR],
		fingerprint: "bcc:" + fingerprintPoints(points[:nSNR]) + " ldpc:" + fingerprintPoints(points[nSNR:])}
	o.problems, o.failed = checkSweep(points, nSNR, m.frames)
	if ot != nil {
		o.layers = map[string]float64{
			"phy.new_s":       ot.seconds("phy.new"),
			"phy.tx_s":        ot.seconds("phy.tx"),
			"channel.apply_s": ot.seconds("channel.apply"),
			"phy.rx_bcc_s":    ot.seconds("phy.rx_bcc"),
			"phy.rx_ldpc_s":   ot.seconds("phy.rx_ldpc"),
		}
		for _, p := range points {
			o.layers["phy.frames"] += float64(p.Frames)
			o.layers["phy.frame_errors"] += float64(p.Errors)
			o.layers["phy.bit_errors"] += float64(p.BitErrs)
		}
	}
	return o
}

// frameLoop is phy.MeasurePERMimo's loop, step for step and draw for
// draw, with a span around each call into a layer: TxFrame, the channel
// (MIMOTDL.Apply plus AWGN on each antenna), and RxFrame.
func (m mimoLink) frameLoop(h *phy.Ht, snrDB float64, src *rng.Source, ot *opTrace, parent int, rxSpan string) phy.PERResult {
	noiseVar := channel.NoiseVarFromSNRdB(snrDB)
	res := phy.PERResult{SNRdB: snrDB, Frames: m.frames}
	for f := 0; f < m.frames; f++ {
		payload := src.Bytes(m.payloadBytes)
		ch := m.channel(h.NumRx(), h.NumTx(), src)
		sp := ot.begin("phy.tx", parent)
		tx := h.TxFrame(payload)
		ot.end(sp)
		sp = ot.begin("channel.apply", parent)
		rx := ch.Apply(tx)
		for j := range rx {
			rx[j] = channel.AWGN(rx[j], noiseVar, src)
		}
		ot.end(sp)
		sp = ot.begin(rxSpan, parent)
		got, ok := h.RxFrame(rx, noiseVar)
		ot.end(sp)
		res.BitsSent += m.payloadBytes * 8
		if !ok || !bytes.Equal(got, payload) {
			res.Errors++
			res.BitErrs += payloadBitErrors(payload, got)
		}
	}
	return res
}

// payloadBitErrors counts differing bits the way the phy package's PER
// harness does: a payload of the wrong length counts half its bits.
func payloadBitErrors(want, got []byte) int {
	if len(got) != len(want) {
		return len(want) * 4
	}
	errs := 0
	for i := range want {
		errs += bits.OnesCount8(want[i] ^ got[i])
	}
	return errs
}
