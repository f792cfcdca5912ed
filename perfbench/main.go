// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload as a closed loop with a single client: operations (one
// seed's build + Prepare + Run of a netsim floor, or one sweep of the
// MIMO link Monte-Carlo) go back to back until the time budget is spent,
// every operation's output is checked, and the medians over operations
// are printed as one JSON line, the last line of standard output.
//
//	perfbench --workload dense-floor --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (setup_s, run_s,
// total_s, heap_mb). With --trace 1 every operation runs twice on the
// same seed, untraced and then traced (spans around each call into a
// layer, counting probes on the netsim event stream); the traced output
// must equal the untraced one, and the per-layer metrics come from the
// traced copy. Spans are written to .bench_build/ when the run ends.
// --workload all runs every workload untraced and traced in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"time"
)

// metric names one reported figure, its unit, and which way is better.
type metric struct{ name, unit, better string }

// endToEnd are the figures a user of the simulator waits on, reported
// by untraced runs on every workload.
var endToEnd = []metric{
	{"setup_s", "s", "lower"}, {"run_s", "s", "lower"},
	{"total_s", "s", "lower"}, {"heap_mb", "MB", "lower"},
}

// opResult is what one operation measured and produced.
type opResult struct {
	setupS, runS, heapMB float64
	attempted            int      // operations this counts as (SNR points for mimo-link)
	problems             []string // failed output checks
	failed               int      // operations among attempted that failed a check
	fingerprint          string   // digest of the simulated statistics
	output               any      // the simulated outcome, compared traced vs untraced
	layers               map[string]float64
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed; operation i runs seed*1000+i")
	seconds := flag.Float64("seconds", 10, "measurement budget per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var rep report
	var err error
	if *name == "all" {
		rep, err = runAll(*seed, *seconds)
	} else {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want all or one of %v)\n", *name, workloadNames())
			os.Exit(2)
		}
		rep, err = measure(w, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measure runs operations of w back to back within the given budget
// (at least one) and reports the median of each metric over them.
func measure(w workload, seed int64, seconds float64, traced bool) (report, error) {
	rep := report{Metrics: map[string]value{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	samples := map[string][]float64{}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	// Stop before an operation that would likely overrun the budget,
	// judged by the one before it; the first always runs.
	for i, last := int64(0), time.Duration(0); i == 0 || time.Since(start)+last <= budget; i++ {
		opStart := time.Now()
		s := seed*1000 + i
		plain := w.op(s, nil)
		rep.add(w.name, s, false, plain)
		if traced {
			ot := tr.begin(w.name, s)
			t := w.op(s, ot)
			ot.end(ot.root)
			if !reflect.DeepEqual(plain.output, t.output) {
				t.problems = append(t.problems, "traced output differs from the untraced run")
				t.failed = t.attempted
			}
			rep.add(w.name, s, true, t)
			t.layers["probe.overhead_s"] = t.runS - plain.runS
			for k, v := range t.layers {
				samples[k] = append(samples[k], v)
			}
		} else {
			for k, v := range map[string]float64{"setup_s": plain.setupS, "run_s": plain.runS,
				"total_s": plain.setupS + plain.runS, "heap_mb": plain.heapMB} {
				samples[k] = append(samples[k], v)
			}
		}
		last = time.Since(opStart)
	}
	rep.Correct = rep.Failed == 0
	metrics := endToEnd
	if traced {
		metrics = perLayer
		path := fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", w.name, seed)
		if err := tr.write(path); err != nil {
			return rep, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Println("spans written to", path)
	}
	for _, m := range metrics {
		rep.Metrics[m.name] = value{median(samples[m.name]), m.unit}
	}
	return rep, nil
}

// add logs one operation with its fingerprint and failed checks, and
// counts it.
func (rep *report) add(workload string, seed int64, traced bool, o opResult) {
	fmt.Printf("op %s seed=%d traced=%v setup_s=%.4f run_s=%.4f heap_mb=%.1f fingerprint=%s\n",
		workload, seed, traced, o.setupS, o.runS, o.heapMB, o.fingerprint)
	for _, p := range o.problems {
		fmt.Printf("CHECK FAILED %s seed=%d: %s\n", workload, seed, p)
	}
	rep.Attempted += o.attempted
	rep.Failed += o.failed
}

// runAll measures every workload untraced and then traced, prints each
// report, and folds them into one whose metric names carry the
// workload as a prefix ("dense-floor/setup_s").
func runAll(seed int64, seconds float64) (report, error) {
	all := report{Metrics: map[string]value{}}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := measure(w, seed, seconds, traced)
			if err != nil {
				return all, err
			}
			fmt.Printf("== %s traced=%v correct=%v attempted=%d failed=%d\n",
				w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			metrics := endToEnd
			if traced {
				metrics = perLayer
			}
			for _, m := range metrics {
				v := rep.Metrics[m.name]
				fmt.Printf("   %-26s %14.6g %s\n", m.name, v.Value, v.Unit)
				all.Metrics[w.name+"/"+m.name] = v
			}
			all.Attempted += rep.Attempted
			all.Failed += rep.Failed
		}
	}
	all.Correct = all.Failed == 0
	return all, nil
}

// median returns the middle of xs (the mean of the middle two for an
// even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
