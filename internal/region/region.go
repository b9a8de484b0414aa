// Package region implements region-based segmentation (§2.3.2): grouping
// closed candidate sets into maximal families connected by time-cover
// intersection (Definitions 2-5), and detecting the earliest moment a
// region can no longer grow — the point where the greedy hitting-set
// algorithm may run without sacrificing optimality (Theorem 2) or the
// approximation ratio (Theorem 3).
package region

import (
	"slices"
	"time"

	"gasf/internal/filter"
)

// Region is a maximal family of connected candidate sets (Definition 4).
type Region struct {
	// Sets are the member candidate sets, ordered by their earliest
	// timestamp.
	Sets []*filter.CandidateSet
	// seqs is TupleCount's scratch, kept across calls.
	seqs []int
}

// Cover returns the region's time cover: the union of its sets' covers
// (Definition 5). Because member sets are connected, the union is the
// interval [min, max].
func (r *Region) Cover() (min, max time.Time) {
	min, max = r.Sets[0].MinTS(), r.Sets[0].MaxTS()
	for _, cs := range r.Sets[1:] {
		if cs.MinTS().Before(min) {
			min = cs.MinTS()
		}
		if cs.MaxTS().After(max) {
			max = cs.MaxTS()
		}
	}
	return min, max
}

// TupleCount returns the number of distinct tuples across the region's
// sets; the paper's region size, which drives the run-time predictor.
func (r *Region) TupleCount() int {
	// Members within one set are distinct, so single-set regions (the
	// common case) need no cross-set deduplication.
	if len(r.Sets) == 1 {
		return len(r.Sets[0].Members)
	}
	// Count distinct sequence numbers by sorting them in the region's
	// reusable scratch rather than building a per-region set.
	seqs := r.seqs[:0]
	for _, cs := range r.Sets {
		for _, m := range cs.Members {
			seqs = append(seqs, m.Seq)
		}
	}
	slices.Sort(seqs)
	n := 0
	for i, seq := range seqs {
		if i == 0 || seq != seqs[i-1] {
			n++
		}
	}
	r.seqs = seqs
	return n
}

// ClosedByCut reports whether any member set was closed by a timely cut;
// used for the "percent of regions cut" metric (Fig 4.11).
func (r *Region) ClosedByCut() bool {
	for _, cs := range r.Sets {
		if cs.ClosedByCut {
			return true
		}
	}
	return false
}

// Tracker accumulates closed candidate sets and extracts regions as soon
// as they can no longer grow.
//
// A pending component can still grow in two ways only: an open candidate
// set whose earliest admitted tuple falls inside the component's cover may
// close into it, or a future set may start inside the cover. Since
// admissions happen at arrival and source timestamps are strictly
// increasing, a future set's cover starts after the current stream time;
// so a component is final once (a) every open set's earliest admitted
// timestamp is after the component's cover and (b) the stream has advanced
// to the end of the cover. This is the same condition as the paper's group
// utility check (a closed set containing a tuple whose utility exceeds the
// closed-set count implies an open set admitting it), expressed on time
// covers.
//
// Pending sets are kept ordered by start time, ties in insertion order.
// Connectivity over intervals is exactly interval overlap (with transitive
// closure), so components are contiguous runs of that order; they are
// disjoint in time, so a later component's cover ends later, and the
// components that are final always form a prefix.
type Tracker struct {
	pending []*filter.CandidateSet

	// scanEnd and scanMax carry the walk of the front component from one
	// Ready call to the next: pending[:scanEnd] is connected, with cover
	// end scanMax. Zero scanEnd means nothing is carried.
	scanEnd int
	scanMax time.Time

	// Scratch behind the regions Ready and Flush return, reused by the
	// next call: sets holds the emitted sets, regions their grouping, and
	// out the returned pointers.
	sets    []*filter.CandidateSet
	regions []Region
	out     []*Region
}

// Add registers a closed candidate set, inserting it after every pending
// set that starts no later than it does.
func (tr *Tracker) Add(cs *filter.CandidateSet) {
	start := cs.MinTS()
	i := len(tr.pending)
	// Sets mostly close in start order, so the insertion point is at or
	// near the end.
	for i > 0 && tr.pending[i-1].MinTS().After(start) {
		i--
	}
	tr.pending = slices.Insert(tr.pending, i, cs)
	switch {
	case i == 0:
		// A new front set need not touch the old front.
		tr.scanEnd = 0
	case i < tr.scanEnd:
		// The set starts no later than the set it displaced, which the
		// carried walk had already connected, so it joins the walk.
		tr.scanEnd++
		if max := cs.MaxTS(); max.After(tr.scanMax) {
			tr.scanMax = max
		}
	}
}

// PendingSets returns the number of closed sets not yet emitted.
func (tr *Tracker) PendingSets() int { return len(tr.pending) }

// EarliestPending returns the earliest timestamp across pending sets, used
// by the cut controller to compute the current region span.
func (tr *Tracker) EarliestPending() (time.Time, bool) {
	if len(tr.pending) == 0 {
		return time.Time{}, false
	}
	return tr.pending[0].MinTS(), true
}

// Ready extracts and returns every region that can no longer grow, given
// the earliest admitted timestamps of all currently open candidate sets
// and the current stream time (the timestamp of the most recently
// processed tuple). Extracted sets leave the tracker.
//
// The sweep walks components from the front and stops at the first one
// that can still grow, as soon as its cover reaches past now or an open
// set's start. Where it stopped carries over to the next call, so the
// steady state (no region ready yet) resumes the front component's walk
// instead of repeating it, and allocates nothing. The returned regions and
// their Sets slices are tracker scratch, valid until the next call to
// Ready or Flush; the candidate sets themselves are the caller's.
func (tr *Tracker) Ready(openMins []time.Time, now time.Time) []*Region {
	tr.resetScratch()
	if len(tr.pending) == 0 {
		return nil
	}
	h := horizon{now: now, open: len(openMins) > 0}
	for i, om := range openMins {
		if i == 0 || om.Before(h.openMin) {
			h.openMin = om
		}
	}
	start, end, max := 0, tr.scanEnd, tr.scanMax // the ready prefix is pending[:start]
	if end == 0 {
		end, max = 1, tr.pending[0].MaxTS()
	}
	for {
		var ok bool
		if end, max, ok = tr.walk(end, max, &h); !ok {
			tr.scanEnd, tr.scanMax = end-start, max
			break
		}
		tr.addRegion(start, end)
		start = end
		if start == len(tr.pending) {
			tr.scanEnd = 0
			break
		}
		end, max = start+1, tr.pending[start].MaxTS()
	}
	if start == 0 {
		return nil
	}
	n := copy(tr.pending, tr.pending[start:])
	clear(tr.pending[n:])
	tr.pending = tr.pending[:n]
	return tr.result()
}

// Flush extracts every remaining region regardless of growth potential;
// used at end of stream. The returned regions follow Ready's reuse
// contract.
func (tr *Tracker) Flush() []*Region {
	tr.resetScratch()
	tr.scanEnd = 0
	if len(tr.pending) == 0 {
		return nil
	}
	for i := 0; i < len(tr.pending); {
		j, _, _ := tr.walk(i+1, tr.pending[i].MaxTS(), nil)
		tr.addRegion(i, j)
		i = j
	}
	clear(tr.pending)
	tr.pending = tr.pending[:0]
	return tr.result()
}

// horizon is how far the cover of a component that can no longer grow may
// reach: to now at most, and short of the earliest open set's start.
type horizon struct {
	now     time.Time
	open    bool
	openMin time.Time
}

// final reports whether a cover ending at max is within the horizon.
func (h *horizon) final(max time.Time) bool {
	return !max.After(h.now) && (!h.open || h.openMin.After(max))
}

// walk extends a connected run of pending sets that ends before index j
// and whose cover ends at max to the end of its component, returning that
// end and the component's cover end. Given a horizon it gives up,
// reporting false, as soon as max passes it; the run up to the returned
// index is then still connected and ends at the returned max. Without a
// horizon it always walks the whole component.
func (tr *Tracker) walk(j int, max time.Time, h *horizon) (int, time.Time, bool) {
	if h != nil && !h.final(max) {
		return j, max, false
	}
	for ; j < len(tr.pending) && !tr.pending[j].MinTS().After(max); j++ {
		// Touching covers are connected.
		if m := tr.pending[j].MaxTS(); m.After(max) {
			max = m
			if h != nil && !h.final(max) {
				return j + 1, max, false
			}
		}
	}
	return j, max, true
}

// addRegion stages pending[i:j] as one emitted region.
func (tr *Tracker) addRegion(i, j int) {
	from := len(tr.sets)
	tr.sets = append(tr.sets, tr.pending[i:j]...)
	k := len(tr.regions)
	if k < cap(tr.regions) {
		// Reuse the slot, keeping its TupleCount scratch.
		tr.regions = tr.regions[:k+1]
	} else {
		tr.regions = append(tr.regions, Region{})
	}
	// The full slice expression keeps an append by the caller from
	// overwriting the next region's sets.
	tr.regions[k].Sets = tr.sets[from:len(tr.sets):len(tr.sets)]
}

// result returns pointers to the staged regions. They are taken only now
// because staging may grow, and so move, the region array.
func (tr *Tracker) result() []*Region {
	for i := range tr.regions {
		tr.out = append(tr.out, &tr.regions[i])
	}
	return tr.out
}

// resetScratch drops the previous call's regions, so the scratch does not
// pin emitted sets past their use.
func (tr *Tracker) resetScratch() {
	clear(tr.sets)
	tr.sets = tr.sets[:0]
	tr.regions = tr.regions[:0]
	clear(tr.out)
	tr.out = tr.out[:0]
}
