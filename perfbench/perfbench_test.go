package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/rng"
)

// shortWorkloads are the benchmark's workloads at their full size but
// with a fraction of the virtual time (netsim) or frames (mimo-link).
func shortWorkloads() []workload {
	dense, reuse, apt, mimo := denseFloor(), reuseFloorHt(), apartmentQoe(), mimoLinkWorkload()
	dense.durationUs /= 20
	reuse.durationUs /= 20
	apt.durationUs /= 20
	mimo.frames = 10
	return []workload{{"dense-floor", dense.op}, {"reuse-floor-ht", reuse.op},
		{"apartment-qoe", apt.op}, {"mimo-link", mimo.op}}
}

func TestSmokeEveryWorkloadPassesChecks(t *testing.T) {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
	}
	for _, w := range shortWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			plain := w.op(7, nil)
			traced := w.op(7, newTracer().begin(w.name, 7))
			for _, o := range []opResult{plain, traced} {
				if o.failed != 0 || len(o.problems) > 0 || o.attempted < 1 {
					t.Errorf("%d of %d operations failed: %v", o.failed, o.attempted, o.problems)
				}
				if o.setupS <= 0 || o.runS <= 0 || o.heapMB <= 0 {
					t.Errorf("setup_s %v, run_s %v, heap_mb %v: want all positive", o.setupS, o.runS, o.heapMB)
				}
			}
			if !reflect.DeepEqual(plain.output, traced.output) {
				t.Errorf("traced output differs from untraced:\n%+v\n%+v", plain.output, traced.output)
			}
			if len(traced.layers) == 0 {
				t.Error("traced operation reported no per-layer figures")
			}
			for k := range traced.layers {
				if !known[k] {
					t.Errorf("per-layer figure %q is not in perLayer", k)
				}
			}
		})
	}
}

func TestCheckerFlagsAlteredResult(t *testing.T) {
	apt := apartmentQoe()
	apt.durationUs /= 20
	res := apt.op(3, nil).output.(netsim.Result)
	if p := append(checkResult(res), apt.check(res)...); len(p) > 0 {
		t.Fatalf("unaltered result flagged: %v", p)
	}
	cases := map[string]func(r *netsim.Result){
		"nothing delivered":       func(r *netsim.Result) { r.Delivered, r.PerAC = 0, [netsim.NumACs]netsim.ACStats{} },
		"attempt off the modes":   func(r *netsim.Result) { r.ModeAttempts = map[string]int{"x": r.Attempts + 1} },
		"per-AC drop not totaled": func(r *netsim.Result) { r.PerAC[netsim.AC_VI].QueueDrops++ },
		"BSS goodput off":         func(r *netsim.Result) { r.BssGoodputMbps[0] += 0.5 },
		"airtime above 1":         func(r *netsim.Result) { r.AirtimeFrac = 1.5 },
		"flow drop rate above 1":  func(r *netsim.Result) { r.Flows[0].QueueDrops = r.Flows[0].Arrivals + 1 },
		"user missing":            func(r *netsim.Result) { r.QoE.Users-- },
	}
	for name, alter := range cases {
		r := res
		r.Flows = slices.Clone(res.Flows)
		r.BssGoodputMbps = slices.Clone(res.BssGoodputMbps)
		q := *res.QoE
		r.QoE = &q
		alter(&r)
		if p := append(checkResult(r), apt.check(r)...); len(p) == 0 {
			t.Errorf("%s: altered result passed the checks", name)
		}
	}
}

func TestCheckerFlagsAlteredSweep(t *testing.T) {
	good := []phy.PERResult{
		{SNRdB: 14, Frames: 4, Errors: 4, BitsSent: 160, BitErrs: 80},
		{SNRdB: 26, Frames: 4, Errors: 0, BitsSent: 160},
	}
	if p, failed := checkSweep(good, 2, 4); failed != 0 {
		t.Fatalf("unaltered sweep flagged: %v", p)
	}
	cases := map[string]func(p []phy.PERResult){
		"no waterfall":        func(p []phy.PERResult) { p[1].Errors, p[1].BitErrs = 4, 80 },
		"more errors":         func(p []phy.PERResult) { p[0].Errors = 5 },
		"frames lost":         func(p []phy.PERResult) { p[1].Frames = 3 },
		"bit errors, no loss": func(p []phy.PERResult) { p[1].BitErrs = 1 },
	}
	for name, alter := range cases {
		p := slices.Clone(good)
		alter(p)
		if _, failed := checkSweep(p, 2, 4); failed == 0 {
			t.Errorf("%s: altered sweep passed the checks", name)
		}
	}
}

// TestFrameLoopIsTheLibraryLoop pins the timed frame loop to
// phy.MeasurePERMimo: the same PHY and seed give the same counts, with
// and without spans. A failed frame's bit errors carry little
// information, so the comparison runs across the waterfall, where the
// error count at each point depends on every draw.
func TestFrameLoopIsTheLibraryLoop(t *testing.T) {
	m := mimoLinkWorkload()
	m.frames = 6
	for _, c := range mimoCodes {
		h, err := phy.NewHt(phy.HtConfig{MCS: m.mcs, LDPC: c.ldpc})
		if err != nil {
			t.Fatal(err)
		}
		var errs []int
		for snr := 16.0; snr <= 24; snr += 2 {
			want := phy.MeasurePERMimo(h, m.channel, snr, m.payloadBytes, m.frames, rng.New(11))
			plain := m.frameLoop(h, snr, rng.New(11), nil, 0, "")
			ot := newTracer().begin("mimo-link", 11)
			traced := m.frameLoop(h, snr, rng.New(11), ot, ot.root, "phy.rx_"+c.name)
			if plain != want || traced != want {
				t.Errorf("%s at %v dB: frame loop %+v, traced %+v, MeasurePERMimo %+v", c.name, snr, plain, traced, want)
			}
			errs = append(errs, want.Errors)
		}
		if slices.Min(errs) == m.frames || slices.Max(errs) == 0 {
			t.Errorf("%s: error counts %v never leave 0 or all frames, so the comparison proves little", c.name, errs)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's names, units
// and directions in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one non-empty line", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	for _, c := range []struct {
		what string
		json []entry
		prog []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var prog []entry
		for _, m := range c.prog {
			prog = append(prog, entry{m.name, m.unit, m.better})
		}
		if !slices.Equal(c.json, prog) {
			t.Errorf("BENCHMARK.json %s\n%v\nprogram\n%v", c.what, c.json, prog)
		}
	}
}
