package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gasf/internal/filter"
)

// markGroup builds a random group for the release-mark oracle: DC1
// filters, plus a stateful DC (decided at closure, re-admitting its
// closing tuple) and a sampler now and then.
func markGroup(rng *rand.Rand) []filter.Filter {
	out := randomGroup(rng)
	if rng.Intn(3) == 0 {
		delta := 1 + rng.Float64()*8
		f, err := filter.NewStatefulDC("S", "v", delta, rng.Float64()*delta/2)
		if err != nil {
			panic(err)
		}
		out = append(out, f)
	}
	if rng.Intn(3) == 0 {
		p := []filter.Prescription{filter.Random, filter.Top, filter.Bottom}[rng.Intn(3)]
		f, err := filter.NewSS("T", "v", time.Duration(1+rng.Intn(3))*time.Second, 0.5+rng.Float64()*3, 50, 20, p)
		if err != nil {
			panic(err)
		}
		out = append(out, f)
	}
	return out
}

// markOptions draws the engine options of one oracle case: both
// algorithms, every strategy, with and without cuts, punctuations on.
func markOptions(rng *rand.Rand) Options {
	opts := Options{Algorithm: RG, EmitPunctuations: true}
	if rng.Intn(2) == 1 {
		opts.Algorithm = PS
	}
	switch rng.Intn(3) {
	case 1:
		opts.Strategy = PerCandidateSet
	case 2:
		opts.Strategy = Batched
		opts.BatchSize = 1 + rng.Intn(64)
	}
	if rng.Intn(2) == 1 {
		opts.Cuts = true
		opts.MaxDelay = time.Duration(20+rng.Intn(120)) * time.Millisecond
	}
	if rng.Intn(4) == 0 {
		opts.Ties = PreferEarliest
	}
	return opts
}

// distinctSeqs is the map-based DistinctOutputs the release marks replace.
func distinctSeqs(trs []Transmission) int {
	seen := make(map[int]bool)
	for _, tr := range trs {
		seen[tr.Tuple.Seq] = true
	}
	return len(seen)
}

// sameTransmissions reports whether two released sequences match tuple
// for tuple, destination list and release instant included.
func sameTransmissions(a, b []Transmission) bool {
	return slices.EqualFunc(a, b, func(x, y Transmission) bool {
		return x.Tuple == y.Tuple && x.ReleasedAt.Equal(y.ReleasedAt) && slices.Equal(x.Destinations, y.Destinations)
	})
}

// sameCounters compares the Stats counters that cover a whole run
// whether or not the engine was taken from (CPU times are wall clock).
func sameCounters(a, b Stats) bool {
	return a.Inputs == b.Inputs && a.DistinctOutputs == b.DistinctOutputs &&
		a.Transmissions == b.Transmissions && a.Deliveries == b.Deliveries &&
		a.Regions == b.Regions && a.RegionsCut == b.RegionsCut &&
		a.RegionTupleSum == b.RegionTupleSum && a.MultiplexDisorder == b.MultiplexDisorder &&
		fmt.Sprint(a.PerFilter) == fmt.Sprint(b.PerFilter)
}

// TestReleaseMarksOracle is the DistinctOutputs oracle for the pruned
// release marks. Over random groups, both algorithms, every strategy and
// cuts, it runs each case twice over the same series: once on an engine
// nobody takes from, once taking at random step boundaries. Both must
// count the distinct outputs a map over the released sequence counts, the
// untaken engine must keep its whole run as Result always did (latencies
// and punctuations included), and the taken engine must release the same
// sequence while keeping none of it.
func TestReleaseMarksOracle(t *testing.T) {
	const cases = 120
	for c := 0; c < cases; c++ {
		seed := int64(9000 + c)
		rng := rand.New(rand.NewSource(seed))
		opts := markOptions(rng)
		sr := randomWalk(seed, 300+rng.Intn(400))
		groupSeed := rng.Int63()
		group := func() []filter.Filter { return markGroup(rand.New(rand.NewSource(groupSeed))) }
		takeEvery := 1 + rng.Intn(8)

		kept, err := NewEngine(group(), opts)
		if err != nil {
			t.Fatal(err)
		}
		taking, err := NewEngine(group(), opts)
		if err != nil {
			t.Fatal(err)
		}
		var taken []Transmission
		take := func() {
			taken = append(taken, taking.TakeReleased()...)
		}
		maxMarks := 0
		for i := 0; i < sr.Len(); i++ {
			if err := kept.Step(sr.At(i)); err != nil {
				t.Fatal(err)
			}
			if err := taking.Step(sr.At(i)); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(takeEvery) == 0 {
				take()
			}
			maxMarks = max(maxMarks, taking.ReleaseMarks())
		}
		if err := kept.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := taking.Finish(); err != nil {
			t.Fatal(err)
		}
		take()

		name := fmt.Sprintf("case %d (alg=%v strat=%v batch=%d cuts=%v filters=%d)",
			c, opts.Algorithm, opts.Strategy, opts.BatchSize, opts.Cuts, len(group()))
		want := kept.Result()
		if d := distinctSeqs(want.Transmissions); want.Stats.DistinctOutputs != d {
			t.Fatalf("%s: DistinctOutputs %d, map count %d", name, want.Stats.DistinctOutputs, d)
		}
		// Nobody took from kept: it holds its whole run, as Result always
		// did — every transmission, a latency sample per delivery and a
		// punctuation per region.
		if len(want.Transmissions) != want.Stats.Transmissions ||
			len(want.Stats.Latencies) != want.Stats.Deliveries ||
			len(want.Punctuations) != want.Stats.Regions {
			t.Fatalf("%s: untaken engine kept %d/%d transmissions, %d/%d latencies, %d/%d punctuations", name,
				len(want.Transmissions), want.Stats.Transmissions, len(want.Stats.Latencies), want.Stats.Deliveries,
				len(want.Punctuations), want.Stats.Regions)
		}
		if !sameTransmissions(taken, want.Transmissions) {
			t.Fatalf("%s: taken sequence differs from the untaken run (%d vs %d transmissions)",
				name, len(taken), len(want.Transmissions))
		}
		res := taking.Result()
		if !sameCounters(res.Stats, want.Stats) {
			t.Fatalf("%s: taken engine stats %+v, want %+v", name, res.Stats, want.Stats)
		}
		if len(res.Transmissions)+len(res.Punctuations)+len(res.Stats.Latencies) != 0 {
			t.Fatalf("%s: taken engine kept %d transmissions, %d punctuations, %d latencies",
				name, len(res.Transmissions), len(res.Punctuations), len(res.Stats.Latencies))
		}
		if kept.ReleaseMarks() != 0 || taking.ReleaseMarks() != 0 {
			t.Fatalf("%s: release marks survive Finish", name)
		}
		if want.Stats.DistinctOutputs > 50 && maxMarks >= want.Stats.DistinctOutputs {
			t.Fatalf("%s: release marks peaked at %d of %d distinct outputs; never pruned",
				name, maxMarks, want.Stats.DistinctOutputs)
		}
	}
}
