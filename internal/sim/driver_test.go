package sim

import "testing"

// TestRunParallelWorkerInvariance: engines are independent, so any
// worker count — serial, saturated, oversubscribed — must produce the
// identical per-engine fire sequence and leave every clock at the
// target, including an engine with nothing scheduled.
func TestRunParallelWorkerInvariance(t *testing.T) {
	run := func(workers int) ([][]float64, []*Engine) {
		engines := make([]*Engine, 6)
		fired := make([][]float64, 5)
		for i := range engines {
			engines[i] = &Engine{}
			if i == len(fired) {
				continue // idle engine
			}
			eng, idx := engines[i], i
			gap := 3 + float64(i) // distinct load per shard
			var tick func()
			tick = func() {
				fired[idx] = append(fired[idx], eng.Now())
				eng.Schedule(gap, tick)
			}
			eng.Schedule(gap, tick)
		}
		RunParallel(engines, 500, workers)
		return fired, engines
	}
	ref, _ := run(1)
	for _, workers := range []int{0, 2, 6, 32} {
		got, engines := run(workers)
		for i, e := range engines {
			if e.Now() != 500 {
				t.Fatalf("workers=%d: engine %d finished at %.1f, want 500", workers, i, e.Now())
			}
		}
		for i := range ref {
			if len(got[i]) != len(ref[i]) {
				t.Fatalf("workers=%d: engine %d fired %d events, serial fired %d",
					workers, i, len(got[i]), len(ref[i]))
			}
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("workers=%d: engine %d event %d at %.3f, serial at %.3f",
						workers, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}
}

// TestMergeStats pins the aggregation semantics directly: sums for the
// event/pool counters (keeping PoolHitRate event-weighted), max for the
// heap high-water mark.
func TestMergeStats(t *testing.T) {
	a := Stats{Scheduled: 10, Fired: 8, Cancelled: 2, PoolHits: 6, PoolMisses: 4, HeapHighWater: 5}
	b := Stats{Scheduled: 1, Fired: 1, Cancelled: 0, PoolHits: 0, PoolMisses: 1, HeapHighWater: 9}
	m := MergeStats(a, b)
	want := Stats{Scheduled: 11, Fired: 9, Cancelled: 2, PoolHits: 6, PoolMisses: 5, HeapHighWater: 9}
	if m != want {
		t.Fatalf("MergeStats = %+v, want %+v", m, want)
	}
	if z := MergeStats(); z != (Stats{}) {
		t.Fatalf("MergeStats() = %+v, want zero", z)
	}
}

// TestRunParallelConcurrentEngines verifies the fan-out really runs
// engines on distinct goroutines without corrupting shared-nothing
// state — meaningful under -race, where a stray cross-engine touch
// would trip the detector.
func TestRunParallelConcurrentEngines(t *testing.T) {
	const shards = 8
	engines := make([]*Engine, shards)
	counts := make([]int, shards)
	for i := range engines {
		engines[i] = &Engine{}
		eng, idx := engines[i], i
		var tick func()
		tick = func() {
			counts[idx]++
			eng.Schedule(1, tick)
		}
		eng.Schedule(1, tick)
	}
	RunParallel(engines, 1000, 4)
	for i, c := range counts {
		if c != 1000 {
			t.Fatalf("engine %d fired %d events, want 1000", i, c)
		}
	}
}
