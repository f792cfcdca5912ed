package sim

// Parallel execution of independent engines. Engine is a single
// sequential event loop; RunParallel advances several of them to the
// same end time on a small worker pool.
//
// The contract: the engines share nothing mutable. Partitioning the
// workload so that holds is the caller's job — netsim's shard planner
// puts every interacting pair of nodes, and both ends of every flow, on
// one engine. Each engine stays a single-goroutine object; parallelism
// exists only BETWEEN engines, so each engine's event order is
// independent of the worker count or goroutine scheduling. That is
// what makes a sharded run bit-for-bit reproducible for a fixed shard
// count.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunParallel runs every engine to untilUs (see Engine.Run), at most
// workers at a time; workers <= 0 means GOMAXPROCS, and the effective
// count never exceeds len(engines). Worker count affects wall-clock
// only, never results.
func RunParallel(engines []*Engine, untilUs float64, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(engines) {
		workers = len(engines)
	}
	if workers <= 1 {
		for _, e := range engines {
			e.Run(untilUs)
		}
		return
	}
	// Work-stealing over an atomic cursor: shards are rarely balanced
	// perfectly, so a fast worker picks up the next engine instead of
	// idling behind a static stripe.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(engines) {
					return
				}
				engines[i].Run(untilUs)
			}
		}()
	}
	wg.Wait()
}

// MergeStats folds per-engine snapshots into one aggregate: event and
// pool counters sum (so PoolHitRate stays event-weighted — each shard
// contributes hits and misses in proportion to its traffic), and the
// heap high-water mark is the max across engines, since each heap is a
// separate backing array.
func MergeStats(all ...Stats) Stats {
	var out Stats
	for _, s := range all {
		out.Scheduled += s.Scheduled
		out.Fired += s.Fired
		out.Cancelled += s.Cancelled
		out.PoolHits += s.PoolHits
		out.PoolMisses += s.PoolMisses
		if s.HeapHighWater > out.HeapHighWater {
			out.HeapHighWater = s.HeapHighWater
		}
	}
	return out
}
