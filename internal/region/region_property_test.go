package region

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"gasf/internal/filter"
)

// TestRegionPartitionProperty: for random closed-set collections, Flush
// produces a partition into components that are (a) internally connected
// through cover overlap and (b) maximal — no set of one region's cover
// touches another region's cover.
func TestRegionPartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%20)
		var tr Tracker
		total := 0
		for i := 0; i < n; i++ {
			start := rng.Intn(200)
			width := rng.Intn(30)
			tr.Add(setSpan("F", i, start, start+width))
			total++
		}
		regions := tr.Flush()
		got := 0
		for _, r := range regions {
			got += len(r.Sets)
		}
		if got != total {
			return false // partition must cover every set exactly once
		}
		// Maximality: covers of distinct regions must not touch.
		for i := range regions {
			for j := i + 1; j < len(regions); j++ {
				iMin, iMax := regions[i].Cover()
				jMin, jMax := regions[j].Cover()
				if !(iMax.Before(jMin) || jMax.Before(iMin)) {
					return false
				}
			}
		}
		// Internal connectivity: each region's sets, sorted by start,
		// must chain through overlaps (interval connectivity).
		for _, r := range regions {
			maxSeen := time.Time{}
			for k, cs := range r.Sets {
				if k == 0 {
					maxSeen = cs.MaxTS()
					continue
				}
				if cs.MinTS().After(maxSeen) {
					return false // gap inside a region
				}
				if cs.MaxTS().After(maxSeen) {
					maxSeen = cs.MaxTS()
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestReadyNeverEmitsGrowable: whatever the open-set configuration, a
// region emitted by Ready can never gain a new member afterwards — adding
// any closed set whose cover starts after every open min and after `now`
// cannot touch it.
func TestReadyNeverEmitsGrowable(t *testing.T) {
	f := func(seed int64, nRaw, openRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Tracker
		n := 1 + int(nRaw%12)
		maxEnd := 0
		for i := 0; i < n; i++ {
			start := rng.Intn(100)
			width := rng.Intn(20)
			tr.Add(setSpan("F", i, start, start+width))
			if start+width > maxEnd {
				maxEnd = start + width
			}
		}
		var openMins []time.Time
		for i := 0; i < int(openRaw%4); i++ {
			openMins = append(openMins, at(rng.Intn(120)))
		}
		now := at(rng.Intn(150))
		emitted := tr.Ready(openMins, now)
		for _, r := range emitted {
			_, max := r.Cover()
			if max.After(now) {
				return false // stream has not even reached the cover end
			}
			for _, om := range openMins {
				if !om.After(max) {
					return false // an open set could still join
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sortTracker is the tracker as it was before pending sets were kept in
// order: Ready and Flush stably sort the whole pending list and sweep every
// component on each call. It is the oracle for the ordered tracker.
type sortTracker struct {
	pending []*filter.CandidateSet
}

func (tr *sortTracker) Add(cs *filter.CandidateSet) { tr.pending = append(tr.pending, cs) }

func (tr *sortTracker) sortPending() {
	slices.SortStableFunc(tr.pending, func(a, b *filter.CandidateSet) int {
		return a.MinTS().Compare(b.MinTS())
	})
}

func (tr *sortTracker) componentEnd(i int) (int, time.Time) {
	curMax := tr.pending[i].MaxTS()
	j := i + 1
	for j < len(tr.pending) && !tr.pending[j].MinTS().After(curMax) {
		if tr.pending[j].MaxTS().After(curMax) {
			curMax = tr.pending[j].MaxTS()
		}
		j++
	}
	return j, curMax
}

func (tr *sortTracker) Ready(openMins []time.Time, now time.Time) [][]*filter.CandidateSet {
	tr.sortPending()
	var ready [][]*filter.CandidateSet
	var keep []*filter.CandidateSet
	for i := 0; i < len(tr.pending); {
		j, max := tr.componentEnd(i)
		ok := !max.After(now)
		for _, om := range openMins {
			if !om.After(max) {
				ok = false
			}
		}
		if ok {
			ready = append(ready, slices.Clone(tr.pending[i:j]))
		} else {
			keep = append(keep, tr.pending[i:j]...)
		}
		i = j
	}
	tr.pending = keep
	return ready
}

func (tr *sortTracker) Flush() [][]*filter.CandidateSet {
	tr.sortPending()
	var out [][]*filter.CandidateSet
	for i := 0; i < len(tr.pending); {
		j, _ := tr.componentEnd(i)
		out = append(out, slices.Clone(tr.pending[i:j]))
		i = j
	}
	tr.pending = nil
	return out
}

// distinctSeqs is the map-based region size TupleCount replaces.
func distinctSeqs(sets []*filter.CandidateSet) int {
	seen := map[int]bool{}
	for _, cs := range sets {
		for _, m := range cs.Members {
			seen[m.Seq] = true
		}
	}
	return len(seen)
}

// sameRegions reports whether the tracker's regions equal the oracle's:
// the same sets, by identity, in the same order, and the same sizes.
func sameRegions(got []*Region, want [][]*filter.CandidateSet) bool {
	if len(got) != len(want) {
		return false
	}
	for i, r := range got {
		if !slices.Equal(r.Sets, want[i]) || r.TupleCount() != distinctSeqs(want[i]) {
			return false
		}
	}
	return true
}

// TestTrackerMatchesSortOracle drives the ordered tracker and the
// sort-every-call oracle through the same random Add/Ready/Flush
// interleavings. Starts and ends are drawn from a narrow range, so equal
// starts and touching covers are common; open mins and now are arbitrary.
// Both must emit the same regions with the same set order, and agree on
// the pending count and earliest start after every operation.
func TestTrackerMatchesSortOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Tracker
		var oracle sortTracker
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(10); {
			case r < 6:
				// Mostly narrow sets, some wide ones that reach across
				// several pending sets.
				start, width := rng.Intn(60), rng.Intn(12)
				if rng.Intn(4) == 0 {
					width = rng.Intn(40)
				}
				offsets := []int{start}
				for o := start + 1 + rng.Intn(4); o < start+width; o += 1 + rng.Intn(4) {
					offsets = append(offsets, o)
				}
				if width > 0 {
					offsets = append(offsets, start+width)
				}
				cs := setSpan(string(rune('A'+rng.Intn(4))), op, offsets...)
				tr.Add(cs)
				oracle.Add(cs)
			case r < 9:
				// Half the horizons reach past most pending covers, so
				// walks get far into the front component before stopping.
				lo := 0
				if rng.Intn(2) == 0 {
					lo = 40
				}
				var openMins []time.Time
				for k := rng.Intn(4); k > 0; k-- {
					openMins = append(openMins, at(lo+rng.Intn(80-lo)))
				}
				now := at(lo + rng.Intn(80-lo))
				if !sameRegions(tr.Ready(openMins, now), oracle.Ready(openMins, now)) {
					t.Logf("seed %d op %d: Ready(%v, %v) differs", seed, op, openMins, now)
					return false
				}
			default:
				if !sameRegions(tr.Flush(), oracle.Flush()) {
					t.Logf("seed %d op %d: Flush differs", seed, op)
					return false
				}
			}
			if tr.PendingSets() != len(oracle.pending) {
				return false
			}
			got, ok := tr.EarliestPending()
			if ok != (len(oracle.pending) > 0) {
				return false
			}
			if ok {
				earliest := slices.MinFunc(oracle.pending, func(a, b *filter.CandidateSet) int {
					return a.MinTS().Compare(b.MinTS())
				})
				if !got.Equal(earliest.MinTS()) {
					return false
				}
			}
		}
		return sameRegions(tr.Flush(), oracle.Flush())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
