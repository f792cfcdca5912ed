package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Run the same seed sweep serially and with a pool; results must be
// bit-for-bit identical in job order. Under `go test -race` this also
// proves the workers share no mutable state (each job builds its own
// Network and rng.Source).
func TestRunnerParallelMatchesSerial(t *testing.T) {
	build := DenseGrid(DefaultConfig(), 2, 4, []int{1, 6}, 30, 1000)
	jobs := SeedSweep("dense", build, 200000, 100, 8)
	serial := ScenarioRunner{Workers: 1}.RunAll(jobs)
	parallel := ScenarioRunner{Workers: 4}.RunAll(jobs)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := fmt.Sprintf("%+v", serial[i]), fmt.Sprintf("%+v", parallel[i])
		if a != b {
			t.Errorf("job %d diverged between serial and parallel:\n%s\n%s", i, a, b)
		}
	}
}

// With RTS/CTS and per-frame ARF enabled every node carries extra
// mutable state (NAV timers, per-destination rate controllers); the
// pool must still reproduce serial results bit for bit, ModeAttempts
// histograms included.
func TestRunnerParallelMatchesSerialWithRtsAndArf(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RtsThresholdBytes = 500
	cfg.RateControl = "arf"
	jobs := append(
		SeedSweep("hidden-rts", HiddenPairRtsCts(cfg, 300, 1200), 200000, 300, 4),
		SeedSweep("dense-arf", DenseGrid(cfg, 2, 4, []int{1, 6}, 30, 1000), 200000, 400, 4)...)
	serial := ScenarioRunner{Workers: 1}.RunAll(jobs)
	parallel := ScenarioRunner{Workers: 4}.RunAll(jobs)
	for i := range serial {
		a, b := fmt.Sprintf("%+v", serial[i]), fmt.Sprintf("%+v", parallel[i])
		if a != b {
			t.Errorf("job %d diverged between serial and parallel:\n%s\n%s", i, a, b)
		}
	}
	rts := 0
	for _, r := range serial[:4] {
		rts += r.RtsAttempts
	}
	if rts == 0 {
		t.Error("RTS/CTS jobs sent no RTSs; the test is not exercising the new state")
	}
}

func TestRunnerMixedScenarios(t *testing.T) {
	jobs := []Job{
		{Name: "dense", Seed: 1, DurationUs: 150000,
			Build: DenseGrid(DefaultConfig(), 1, 4, []int{1}, 30, 1000)},
		{Name: "mix", Seed: 2, DurationUs: 150000,
			Build: TrafficMix(DefaultConfig(), 2, 2, 1, 1.0)},
		{Name: "hidden", Seed: 3, DurationUs: 150000,
			Build: HiddenPair(DefaultConfig(), 300, 1000)},
	}
	results := ScenarioRunner{Workers: 3}.RunAll(jobs)
	for i, r := range results {
		if r.Attempts == 0 {
			t.Errorf("job %s ran nothing: %+v", jobs[i].Name, r)
		}
	}
}

// TestRunnerRunsJobsConcurrently: a Workers: 4 pool must really have
// jobs in flight together. Each job's Build records the peak number of
// Builds running at once and waits for a second job to arrive, so a
// pool that ran jobs one at a time could never reach two. The timeout
// only guards against a deadlock in a broken (serial) pool; the
// assertion itself makes no wall-clock claim.
func TestRunnerRunsJobsConcurrently(t *testing.T) {
	build := DenseGrid(DefaultConfig(), 1, 2, []int{1}, 30, 1000)
	var inFlight, peak atomic.Int32
	together := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(together) }) }
	jobs := SeedSweep("dense", func(seed int64) *Network {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		if n >= 2 {
			release()
		}
		select {
		case <-together:
		case <-time.After(30 * time.Second):
			release()
		}
		return build(seed)
	}, 5e4, 0, 8)
	ScenarioRunner{Workers: 4, Parallelism: 4}.RunAll(jobs)
	if got := peak.Load(); got < 2 {
		t.Fatalf("Workers: 4 never had two jobs in flight (peak %d)", got)
	}
}

// BenchmarkRunnerSpeedup reports the serial-vs-pool wall-clock ratio on
// a seed sweep (speedup = serial / 4-worker time). It is a measurement,
// not a gate: the ratio depends on the core count and on whatever else
// the machine is running.
func BenchmarkRunnerSpeedup(b *testing.B) {
	build := DenseGrid(DefaultConfig(), 3, 8, []int{1}, 25, 1000)
	jobs := SeedSweep("dense", build, 300000, 0, 8)
	var serial, pool time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		ScenarioRunner{Workers: 1}.RunAll(jobs)
		t1 := time.Now()
		ScenarioRunner{Workers: 4}.RunAll(jobs)
		serial += t1.Sub(t0)
		pool += time.Since(t1)
	}
	b.ReportMetric(float64(serial)/float64(pool), "speedup")
}
