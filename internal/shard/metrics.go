package shard

import "time"

// Snapshot is one shard's counters at a point in time. Counters are
// monotonic; rates are derived from the runtime's start instant.
type Snapshot struct {
	// Shard is the shard index.
	Shard int
	// Sources is the number of sources partitioned onto the shard.
	Sources int
	// Enqueued counts tuples accepted into the shard queue.
	Enqueued uint64
	// Processed counts tuples stepped through an engine.
	Processed uint64
	// Dropped counts tuples lost: tuples abandoned at cancellation and
	// tuples discarded after a source's engine failed.
	Dropped uint64
	// Flushes counts sink flushes (batched delivery handoffs).
	Flushes uint64
	// QueueDepth is the ring occupancy at snapshot time.
	QueueDepth int
	// MaxQueueDepth is the highest ring occupancy observed by the worker.
	MaxQueueDepth int
	// Drains counts the worker's ring pops that returned tasks; each is
	// one consumer-side synchronization.
	Drains uint64
	// AvgDrainRun is the mean tasks per drain — the batch-occupancy
	// figure: 1.0 means the ring degenerated to task-at-a-time hand-off,
	// higher means producers and the worker amortize synchronization.
	AvgDrainRun float64
	// ProducerParks counts producer park events on a full ring (the
	// backpressure stall signal).
	ProducerParks uint64
	// ConsumerParks counts worker park events on an empty ring (idle
	// transitions; high rates with low AvgDrainRun indicate a trickle
	// workload, not a saturated one).
	ConsumerParks uint64
	// Elapsed is the time since Start.
	Elapsed time.Duration
	// TuplesPerSec is Processed over Elapsed.
	TuplesPerSec float64
}

// Metrics returns a snapshot per shard. Safe to call while the runtime is
// running.
func (r *Runtime) Metrics() []Snapshot {
	r.mu.Lock()
	started := r.started
	startAt, endAt := r.startAt, r.endAt
	r.mu.Unlock()
	var elapsed time.Duration
	switch {
	case !started:
	case !endAt.IsZero(): // drained: freeze the run's duration
		elapsed = endAt.Sub(startAt)
	default:
		elapsed = time.Since(startAt)
	}
	out := make([]Snapshot, len(r.workers))
	for i, w := range r.workers {
		s := Snapshot{
			Shard:         w.id,
			Sources:       int(w.srcCount.Load()),
			Enqueued:      w.enqueued.Load(),
			Processed:     w.processed.Load(),
			Dropped:       w.dropped.Load(),
			Flushes:       w.flushes.Load(),
			QueueDepth:    w.in.Len(),
			MaxQueueDepth: int(w.maxQueue.Load()),
			Drains:        w.drains.Load(),
			ProducerParks: w.in.producerParks.Load(),
			ConsumerParks: w.in.consumerParks.Load(),
			Elapsed:       elapsed,
		}
		if s.Drains > 0 {
			s.AvgDrainRun = float64(w.drained.Load()) / float64(s.Drains)
		}
		if secs := elapsed.Seconds(); secs > 0 {
			s.TuplesPerSec = float64(s.Processed) / secs
		}
		out[i] = s
	}
	return out
}

// TotalProcessed sums processed tuples across shards.
func (r *Runtime) TotalProcessed() uint64 {
	var n uint64
	for _, w := range r.workers {
		n += w.processed.Load()
	}
	return n
}

// TotalDropped sums dropped tuples across shards.
func (r *Runtime) TotalDropped() uint64 {
	var n uint64
	for _, w := range r.workers {
		n += w.dropped.Load()
	}
	return n
}
