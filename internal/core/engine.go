package core

import (
	"fmt"
	"time"

	"gasf/internal/filter"
	"gasf/internal/hitting"
	"gasf/internal/predict"
	"gasf/internal/region"
	"gasf/internal/tuple"
)

// Engine coordinates a group of filters over one source stream. It owns the
// global state of the two-stage process (Fig 2.4): group utilities of
// tuples, the current region of connected candidate sets, decided outputs,
// and the output scheduler.
//
// An Engine is single-source and not safe for concurrent use; the shard
// runtime drives each source's engine from its one owning worker.
//
// The steady-state Step path is allocation-free: utilities live in a
// generational dense index, open-set tracking and scratch sets are engine-
// owned and cleared in place, and pendingOut buffers are recycled after
// release (see state.go and DESIGN.md §8).
type Engine struct {
	filters []filter.Filter
	opts    Options

	// util maps tuple sequence number to group utility: the number of
	// filters currently holding the tuple in a candidate set.
	util seqCounts
	// open tracks, per filter (parallel to filters), the admitted tuples
	// of the open (unclosed) candidate set, in arrival order.
	open [][]*tuple.Tuple
	// slot maps filter ID to its index in filters/open; rebuilt on the
	// (rare) membership changes so the per-tuple path never hashes IDs.
	slot map[string]int
	// tracker accumulates closed sets into regions.
	tracker region.Tracker
	// predictor models greedy run time for timely cuts (§3.3).
	predictor *predict.RunTimePredictor
	// accounted marks sets whose utility contribution has been removed.
	accounted map[*filter.CandidateSet]bool
	// decidedPicks records chosen outputs of sets decided before region
	// emission (PS sets and stateful sets), so the RG greedy can treat
	// them as singleton proxies.
	decidedPicks map[*filter.CandidateSet][]*tuple.Tuple
	// attached holds decided outputs awaiting their region's closure
	// (EarliestRegion strategy).
	attached map[*filter.CandidateSet][]pendingOut
	// batchBuf holds outputs awaiting the next batch boundary.
	batchBuf   []pendingOut
	batchCount int
	// stepBuf holds outputs decided during the current step under the
	// PerCandidateSet strategy; the multicaster sends decided outputs
	// after each input tuple (Fig 2.10, line 11), merging same-tuple
	// decisions made by different filters in the same step.
	stepBuf []pendingOut
	// chosen is the PS global state of recently chosen tuples
	// (heuristic 1), pruned by the chosen horizon.
	chosen     map[int]time.Time
	chosenQ    []chosenRec
	chosenHead int

	// marks records released sequence numbers for DistinctOutputs while
	// they could still be released again (see releaseMarks).
	marks          releaseMarks
	maxReleasedSeq int
	result         Result
	// handed is the length of the last TakeReleased hand-off, so the next
	// take can clear the recycled slots it no longer uses.
	handed   int
	now      time.Time
	started  bool
	lastTS   time.Time
	finished bool

	// Scratch state, owned by the engine and reused across steps.

	// minsBuf backs openMins.
	minsBuf []time.Time
	// regionOuts stages one region's outputs during handleRegion.
	regionOuts []pendingOut
	// proxyBuf holds the singleton proxies of one region's greedy input.
	proxyBuf []*filter.CandidateSet
	// undecidedBuf / greedyBuf stage one region's set partition.
	undecidedBuf []*filter.CandidateSet
	greedyBuf    []*filter.CandidateSet
	// poFree recycles pendingOut buffers (see state.go).
	poFree [][]pendingOut
	// solver decides regions with reusable greedy state.
	solver hitting.Solver
	// relDests collects one released tuple's labels in mergeRelease.
	relDests []string
}

type chosenRec struct {
	seq int
	at  time.Time
}

// NewEngine builds an engine over the given filter group. For a group
// whose membership changes at run time, see NewDynamicEngine.
func NewEngine(filters []filter.Filter, opts Options) (*Engine, error) {
	return newEngine(filters, opts, false)
}

func newEngine(filters []filter.Filter, opts Options, allowEmpty bool) (*Engine, error) {
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	if len(filters) == 0 && !allowEmpty {
		return nil, fmt.Errorf("core: engine needs at least one filter")
	}
	slot := make(map[string]int, len(filters))
	for i, f := range filters {
		if f == nil {
			return nil, fmt.Errorf("core: nil filter")
		}
		if _, dup := slot[f.ID()]; dup {
			return nil, fmt.Errorf("core: duplicate filter id %q", f.ID())
		}
		slot[f.ID()] = i
	}
	cp := make([]filter.Filter, len(filters))
	copy(cp, filters)
	return &Engine{
		filters:        cp,
		opts:           opts,
		open:           make([][]*tuple.Tuple, len(cp)),
		slot:           slot,
		predictor:      predict.NewRunTimePredictor(opts.PredictWindow, opts.PredictMargin),
		accounted:      make(map[*filter.CandidateSet]bool),
		decidedPicks:   make(map[*filter.CandidateSet][]*tuple.Tuple),
		attached:       make(map[*filter.CandidateSet][]pendingOut),
		chosen:         make(map[int]time.Time),
		maxReleasedSeq: -1,
		result:         Result{Stats: Stats{PerFilter: make(map[string]int)}},
	}, nil
}

// Step feeds the next stream tuple through the group. Source timestamps
// must be strictly increasing — region closure detection depends on it.
func (e *Engine) Step(t *tuple.Tuple) error {
	if e.finished {
		return fmt.Errorf("core: Step after Finish")
	}
	if e.started && !t.TS.After(e.lastTS) {
		return fmt.Errorf("core: tuple %d timestamp %v not after previous %v", t.Seq, t.TS, e.lastTS)
	}
	start := time.Now()
	e.now = t.TS

	// Stage one: every filter admits candidates (Fig 2.4). Under PS with
	// cuts, each filter first checks whether admitting the new tuple
	// would violate its time constraint and cuts beforehand (Fig 3.5:
	// "admitting a new tuple will likely violate the time constraint").
	for i, f := range e.filters {
		if e.opts.Cuts && e.opts.Algorithm == PS {
			if list := e.open[i]; len(list) > 0 && t.TS.Sub(list[0].TS) >= e.opts.MaxDelay {
				if err := e.cutFilter(i); err != nil {
					return err
				}
			}
		}
		ev, err := f.Process(t)
		if err != nil {
			return fmt.Errorf("core: filter %s: %w", f.ID(), err)
		}
		if err := e.apply(i, f, t, ev); err != nil {
			return err
		}
	}

	// Timely cuts for RG (Fig 3.3): test the group time constraint after
	// the group processed the tuple.
	if e.opts.Cuts && e.opts.Algorithm == RG {
		if err := e.maybeCut(); err != nil {
			return err
		}
	}

	// Stage two: emit regions that can no longer grow and decide their
	// outputs.
	if err := e.emitRegions(); err != nil {
		return err
	}

	// Release outputs decided this step (PerCandidateSet strategy).
	if len(e.stepBuf) > 0 {
		e.mergeRelease(e.stepBuf, e.now)
		e.stepBuf = clearPending(e.stepBuf)
	}

	// Batched output boundary.
	if e.opts.Strategy == Batched {
		e.batchCount++
		if e.batchCount >= e.opts.BatchSize {
			e.batchCount = 0
			e.releaseBatch()
		}
	}

	e.started, e.lastTS = true, t.TS
	e.pruneMarks()
	e.result.Stats.Inputs++
	e.result.Stats.CPU += time.Since(start)
	return nil
}

// Finish flushes all open and pending state at end of stream and releases
// every remaining output.
func (e *Engine) Finish() error {
	if e.finished {
		return nil
	}
	start := time.Now()
	for i, f := range e.filters {
		cs, dismissed := f.Cut()
		e.applyDismissals(i, dismissed)
		if cs != nil {
			e.removeOpen(i, cs.Members)
			if err := e.handleClosed(f, cs); err != nil {
				return err
			}
		}
	}
	for _, r := range e.tracker.Flush() {
		if err := e.handleRegion(r); err != nil {
			return err
		}
	}
	if len(e.stepBuf) > 0 {
		e.mergeRelease(e.stepBuf, e.now)
		e.stepBuf = clearPending(e.stepBuf)
	}
	e.releaseBatch()
	e.finished = true
	// Nothing is released after Finish, so no mark is needed any more.
	e.marks = releaseMarks{}
	e.result.Stats.CPU += time.Since(start)
	return nil
}

// Result returns the accumulated transmissions and statistics. Call after
// Finish for complete results; see Result for what an engine that
// TakeReleased hands off from keeps.
func (e *Engine) Result() *Result { return &e.result }

// TakeReleased hands over the transmissions released since the last take,
// in release order, for a host that disseminates them as they come. The
// engine then forgets them, together with their Stats.Latencies samples
// and any punctuations, which no sink receives; the Stats counters stay
// exact. The returned slice is engine-owned and valid until the next
// Step, Finish, AddFilter or RemoveFilter call. An engine nobody takes
// from keeps its whole run in Result.
func (e *Engine) TakeReleased() []Transmission {
	trs := e.result.Transmissions
	if n := len(trs); n < e.handed {
		// Slots the previous hand-off used and this one did not: clear
		// them so the recycled array pins no released tuple.
		clear(trs[n:e.handed])
	}
	e.handed = len(trs)
	e.result.Transmissions = trs[:0]
	e.result.Punctuations = e.result.Punctuations[:0]
	e.result.Stats.Latencies = e.result.Stats.Latencies[:0]
	return trs
}

// ReleaseMarks returns the number of released sequence numbers the engine
// still tracks for DistinctOutputs; it stays bounded by the live window.
func (e *Engine) ReleaseMarks() int { return e.marks.len() }

// pruneMarks forgets the release marks no future release can hit: those
// on tuples older than the live window (oldestActive), or all of them
// when nothing is active. Batched outputs awaiting their boundary are not
// part of the window, so pruning waits until the batch buffer is empty;
// EarliestRegion outputs are held by pending sets and stepBuf is empty
// between steps.
func (e *Engine) pruneMarks() {
	if !e.marks.any() || len(e.batchBuf) > 0 {
		return
	}
	oldest, ok := e.oldestActive()
	e.marks.prune(oldest, !ok)
}

// Run drives a complete series through a fresh engine.
func Run(filters []filter.Filter, sr *tuple.Series, opts Options) (*Result, error) {
	e, err := NewEngine(filters, opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sr.Len(); i++ {
		if err := e.Step(sr.At(i)); err != nil {
			return nil, err
		}
	}
	if err := e.Finish(); err != nil {
		return nil, err
	}
	return e.Result(), nil
}

// apply folds one filter event into the global state, following stateful
// decision loops to completion. i is the filter's slot.
func (e *Engine) apply(i int, f filter.Filter, t *tuple.Tuple, ev filter.Event) error {
	for {
		if ev.Admitted {
			e.util.inc(t.Seq)
			e.open[i] = append(e.open[i], t)
		}
		e.applyDismissals(i, ev.Dismissed)
		if ev.Closed == nil {
			return nil
		}
		cs := ev.Closed
		e.removeOpen(i, cs.Members)
		if !f.Stateful() {
			return e.handleClosed(f, cs)
		}
		// Stateful sets are decided immediately (§2.3.3); the filter
		// rebases and may re-admit the closing tuple.
		picks := e.decideSet(cs)
		e.stageDecided(cs, picks)
		e.tracker.Add(cs)
		ev = f.ObserveChosen(picks)
	}
}

// handleClosed routes a freshly closed candidate set: PS decides it now;
// RG leaves it for the region greedy. Stateful sets never reach here.
func (e *Engine) handleClosed(f filter.Filter, cs *filter.CandidateSet) error {
	if f.Stateful() {
		// Reached only from cuts and Finish, where no tuple is pending
		// inside the filter: ObserveChosen just rebases.
		picks := e.decideSet(cs)
		e.stageDecided(cs, picks)
		e.tracker.Add(cs)
		if ev := f.ObserveChosen(picks); ev.Admitted || ev.Closed != nil || len(ev.Dismissed) > 0 {
			return fmt.Errorf("core: filter %s produced events while rebasing after a cut", f.ID())
		}
		return nil
	}
	if e.opts.Algorithm == PS {
		picks := e.decideSet(cs)
		e.stageDecided(cs, picks)
	}
	e.tracker.Add(cs)
	return nil
}

// applyDismissals decrements utilities and open tracking for dismissed
// tuples.
func (e *Engine) applyDismissals(i int, dismissed []*tuple.Tuple) {
	if len(dismissed) == 0 {
		return
	}
	for _, d := range dismissed {
		e.util.dec(d.Seq)
	}
	e.removeOpen(i, dismissed)
}

// removeOpen removes every tuple of drop from the open list of the filter
// at slot i. Open lists, candidate-set members and dismissal lists are all
// in arrival order, which is timestamp order (Step rejects a timestamp
// that does not increase), so one two-pointer merge on timestamps compacts
// the list in place.
func (e *Engine) removeOpen(i int, drop []*tuple.Tuple) {
	list := e.open[i]
	keep := list[:0]
	d := 0
	for _, t := range list {
		for d < len(drop) && drop[d].TS.Before(t.TS) {
			d++
		}
		if d < len(drop) && drop[d].TS.Equal(t.TS) {
			continue
		}
		keep = append(keep, t)
	}
	clear(list[len(keep):])
	e.open[i] = keep
}

// openMins returns the earliest admitted timestamp of each filter's open
// set. The returned slice is engine-owned scratch, valid until the next
// call.
func (e *Engine) openMins() []time.Time {
	mins := e.minsBuf[:0]
	for i := range e.filters {
		if list := e.open[i]; len(list) > 0 {
			mins = append(mins, list[0].TS)
		}
	}
	e.minsBuf = mins
	return mins
}

// emitRegions extracts final regions and decides/releases their outputs.
func (e *Engine) emitRegions() error {
	regions := e.tracker.Ready(e.openMins(), e.now)
	for _, r := range regions {
		if err := e.handleRegion(r); err != nil {
			return err
		}
	}
	return nil
}

// handleRegion decides (RG) and/or releases (per strategy) a closed
// region's outputs.
func (e *Engine) handleRegion(r *region.Region) error {
	st := &e.result.Stats
	st.Regions++
	if r.ClosedByCut() {
		st.RegionsCut++
	}
	size := r.TupleCount()
	st.RegionTupleSum += size

	// Collect attached decided outputs (EarliestRegion holds them until
	// the region closes). outs is engine-owned scratch; its contents are
	// copied on release.
	outs := e.regionOuts[:0]
	for _, cs := range r.Sets {
		if held, ok := e.attached[cs]; ok {
			outs = append(outs, held...)
			delete(e.attached, cs)
			e.putPOBuf(held)
		}
	}

	// Undecided sets (RG stateless) are decided by the greedy hitting
	// set; already-decided sets join as singleton proxies so sharing
	// with their chosen tuples is considered (§2.3.3).
	undecided := e.undecidedBuf[:0]
	greedySets := e.greedyBuf[:0]
	proxies := e.proxyBuf[:0]
	for _, cs := range r.Sets {
		if picks, ok := e.decidedPicks[cs]; ok {
			p := &filter.CandidateSet{
				Owner:      cs.Owner,
				Ordinal:    cs.Ordinal,
				Members:    picks,
				PickDegree: len(picks),
			}
			proxies = append(proxies, p)
			greedySets = append(greedySets, p)
			delete(e.decidedPicks, cs)
			continue
		}
		undecided = append(undecided, cs)
		greedySets = append(greedySets, cs)
	}
	if len(undecided) > 0 {
		start := time.Now()
		picks, err := e.solver.Greedy(greedySets, e.opts.Ties == PreferEarliest)
		elapsed := time.Since(start)
		if err != nil {
			e.saveRegionScratch(outs, undecided, greedySets, proxies)
			return fmt.Errorf("core: deciding region: %w", err)
		}
		st.GreedyCPU += elapsed
		e.predictor.Observe(size, elapsed)
		for _, cs := range undecided {
			if !e.accounted[cs] {
				for _, m := range cs.Members {
					e.util.dec(m.Seq)
				}
			}
		}
		for _, pk := range picks {
			var dests []string
			for _, cs := range pk.Sets {
				if isProxy(proxies, cs) || containsLabel(dests, cs.Owner) {
					continue
				}
				dests = append(dests, cs.Owner)
			}
			if len(dests) > 0 {
				outs = append(outs, pendingOut{t: pk.Tuple, dests: dests, decidedAt: e.now})
			}
		}
	}
	for _, cs := range r.Sets {
		delete(e.accounted, cs)
	}

	switch e.opts.Strategy {
	case Batched:
		e.batchBuf = append(e.batchBuf, outs...)
	default:
		e.mergeRelease(outs, e.now)
	}
	if e.opts.EmitPunctuations {
		_, max := r.Cover()
		e.result.Punctuations = append(e.result.Punctuations, Punctuation{At: e.now, Horizon: max})
	}
	e.saveRegionScratch(outs, undecided, greedySets, proxies)
	return nil
}

// saveRegionScratch returns handleRegion's scratch slices to the engine
// with their contents cleared, so recycled buffers do not pin tuples or
// candidate sets past release.
func (e *Engine) saveRegionScratch(outs []pendingOut, undecided, greedy, proxies []*filter.CandidateSet) {
	for i := range outs {
		outs[i] = pendingOut{}
	}
	clearSets(undecided)
	clearSets(greedy)
	clearSets(proxies)
	e.regionOuts = outs[:0]
	e.undecidedBuf = undecided[:0]
	e.greedyBuf = greedy[:0]
	e.proxyBuf = proxies[:0]
}

func clearSets(s []*filter.CandidateSet) {
	for i := range s {
		s[i] = nil
	}
}

// isProxy reports whether cs is one of the region's singleton proxies;
// region set counts are small, so a scan beats a per-region map.
func isProxy(proxies []*filter.CandidateSet, cs *filter.CandidateSet) bool {
	for _, p := range proxies {
		if p == cs {
			return true
		}
	}
	return false
}

// containsLabel reports whether the destination list already carries the
// label.
func containsLabel(dests []string, label string) bool {
	for _, d := range dests {
		if d == label {
			return true
		}
	}
	return false
}

// releaseBatch releases the batched output buffer.
func (e *Engine) releaseBatch() {
	if len(e.batchBuf) == 0 {
		return
	}
	e.mergeRelease(e.batchBuf, e.now)
	e.batchBuf = clearPending(e.batchBuf)
}

// decideSet chooses outputs for one candidate set with the PS heuristics
// (Fig 2.10): prefer tuples already chosen by other filters, then the
// highest group utility, ties broken toward the more recent tuple. It
// removes the set's utility contribution and records the choices in the
// group state.
func (e *Engine) decideSet(cs *filter.CandidateSet) []*tuple.Tuple {
	eligible := cs.Eligible()
	k := cs.PickDegree
	if k <= 0 {
		k = 1
	}
	if k > len(eligible) {
		k = len(eligible)
	}
	picks := make([]*tuple.Tuple, 0, k)
	for len(picks) < k {
		var best *tuple.Tuple
		// Heuristic 1: a tuple already chosen by another filter.
		for _, m := range eligible {
			if picked(picks, m.Seq) {
				continue
			}
			if _, ok := e.chosen[m.Seq]; !ok {
				continue
			}
			if e.prefer(m, best) {
				best = m
			}
		}
		// Heuristic 2: the highest group utility.
		if best == nil {
			bestU := -1
			for _, m := range eligible {
				if picked(picks, m.Seq) {
					continue
				}
				u := e.util.get(m.Seq)
				if u > bestU || (u == bestU && e.prefer(m, best)) {
					best, bestU = m, u
				}
			}
		}
		if best == nil {
			break
		}
		picks = append(picks, best)
	}
	if !e.accounted[cs] {
		for _, m := range cs.Members {
			e.util.dec(m.Seq)
		}
		e.accounted[cs] = true
	}
	for _, p := range picks {
		e.recordChosen(p)
	}
	return picks
}

// picked reports whether the seq is already among the picks; pick degrees
// are tiny, so a linear scan beats a per-set map.
func picked(picks []*tuple.Tuple, seq int) bool {
	for _, p := range picks {
		if p.Seq == seq {
			return true
		}
	}
	return false
}

// prefer reports whether m beats best under the engine's tie-break rule;
// a nil best always loses.
func (e *Engine) prefer(m, best *tuple.Tuple) bool {
	if best == nil {
		return true
	}
	if e.opts.Ties == PreferEarliest {
		return m.TS.Before(best.TS) || (m.TS.Equal(best.TS) && m.Seq < best.Seq)
	}
	return m.TS.After(best.TS) || (m.TS.Equal(best.TS) && m.Seq > best.Seq)
}

// stageDecided routes a decided set's outputs per the output strategy and
// records the picks for region-time proxying.
func (e *Engine) stageDecided(cs *filter.CandidateSet, picks []*tuple.Tuple) {
	e.decidedPicks[cs] = picks
	switch e.opts.Strategy {
	case PerCandidateSet:
		for _, p := range picks {
			e.stepBuf = append(e.stepBuf, pendingOut{t: p, dest: cs.Owner, decidedAt: e.now})
		}
	case Batched:
		for _, p := range picks {
			e.batchBuf = append(e.batchBuf, pendingOut{t: p, dest: cs.Owner, decidedAt: e.now})
		}
	default: // EarliestRegion: hold until the region closes.
		outs := e.getPOBuf()
		for _, p := range picks {
			outs = append(outs, pendingOut{t: p, dest: cs.Owner, decidedAt: e.now})
		}
		e.attached[cs] = outs
	}
}

// recordChosen adds a pick to the PS chosen-tuple memory and prunes
// entries beyond the horizon. chosenQ is a head-indexed queue compacted in
// place so pruning does not abandon its backing array.
func (e *Engine) recordChosen(t *tuple.Tuple) {
	e.chosen[t.Seq] = e.now
	e.chosenQ = append(e.chosenQ, chosenRec{seq: t.Seq, at: e.now})
	cutoff := e.now.Add(-e.opts.ChosenHorizon)
	for e.chosenHead < len(e.chosenQ) && e.chosenQ[e.chosenHead].at.Before(cutoff) {
		rec := e.chosenQ[e.chosenHead]
		e.chosenHead++
		if at, ok := e.chosen[rec.seq]; ok && !at.After(rec.at) {
			delete(e.chosen, rec.seq)
		}
	}
	if e.chosenHead >= 1024 && e.chosenHead > len(e.chosenQ)-e.chosenHead {
		n := copy(e.chosenQ, e.chosenQ[e.chosenHead:])
		e.chosenQ, e.chosenHead = e.chosenQ[:n], 0
	}
}

// maybeCut tests the RG group time constraint and force-closes all open
// sets when it is about to be violated (Fig 3.3). PS cuts are handled
// per-filter before each Process call in Step.
func (e *Engine) maybeCut() error {
	// Region-based cuts: elapsed region span plus the predicted greedy
	// run time for one more tuple must stay within the budget.
	oldest, ok := e.oldestActive()
	if !ok {
		return nil
	}
	size := e.activeTupleCount()
	predicted := e.predictor.Predict(size + 1)
	if e.now.Sub(oldest)+predicted < e.opts.MaxDelay {
		return nil
	}
	for i := range e.filters {
		if err := e.cutFilter(i); err != nil {
			return err
		}
	}
	return nil
}

// cutFilter force-closes the open candidate set of the filter at slot i.
func (e *Engine) cutFilter(i int) error {
	f := e.filters[i]
	cs, dismissed := f.Cut()
	e.applyDismissals(i, dismissed)
	if cs == nil {
		return nil
	}
	e.removeOpen(i, cs.Members)
	return e.handleClosed(f, cs)
}

// oldestActive returns the earliest timestamp across pending closed sets
// and open admissions — the start of the current region span.
func (e *Engine) oldestActive() (time.Time, bool) {
	oldest, ok := e.tracker.EarliestPending()
	for i := range e.filters {
		if list := e.open[i]; len(list) > 0 {
			if !ok || list[0].TS.Before(oldest) {
				oldest, ok = list[0].TS, true
			}
		}
	}
	return oldest, ok
}

// activeTupleCount approximates the size of the accumulating region: open
// admissions plus pending closed-set members (distinct per filter, may
// overlap across filters; the predictor only needs a consistent scale).
func (e *Engine) activeTupleCount() int {
	n := 0
	for i := range e.filters {
		n += len(e.open[i])
	}
	n += e.tracker.PendingSets()
	return n
}
