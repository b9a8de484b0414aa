package core

import (
	"testing"

	"gasf/internal/filter"
	"gasf/internal/trace"
)

// TestStepAllocsBounded is the allocation regression gate for the engine
// hot path (DESIGN.md §8): a full run over the DC1 NAMOS trace must stay
// within a small per-tuple allocation budget. The budget covers the
// retained outputs (result transmissions, candidate-set members) — the
// steady-state bookkeeping itself is allocation-free; regressions that
// reintroduce per-step map or scratch churn trip this long before they
// show up in wall-clock benchmarks.
func TestStepAllocsBounded(t *testing.T) {
	sr, err := trace.NAMOS(trace.Config{N: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stat, err := sr.MeanAbsChange("fluoro")
	if err != nil {
		t.Fatal(err)
	}
	build := func() []filter.Filter {
		out := make([]filter.Filter, 3)
		for i := range out {
			mult := 1 + float64(i)*0.37
			f, err := filter.NewDC1(string(rune('A'+i)), "fluoro", mult*stat, 0.5*mult*stat)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = f
		}
		return out
	}
	const perStepBudget = 12.0
	for _, alg := range []Algorithm{RG, PS} {
		avg := testing.AllocsPerRun(3, func() {
			e, err := NewEngine(build(), Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < sr.Len(); i++ {
				if err := e.Step(sr.At(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Finish(); err != nil {
				t.Fatal(err)
			}
		})
		perStep := avg / float64(sr.Len())
		if perStep > perStepBudget {
			t.Errorf("%v: %.2f allocs per Step on the DC1 trace, budget %.1f", alg, perStep, perStepBudget)
		}
	}
}

// TestStepAllocsGroup8 is the allocation gate for the groups workload's
// group shape: 8 DC1 members on NAMOS tmpr4 joined through AddFilter
// (group8Engine). Nearly all of its allocations are retained output and
// candidate-set members; the budget sits just above the 10.0 per Step
// measured once the region tracker, open-list removals and release
// grouping stopped using maps (10.6 before), so bookkeeping churn coming
// back trips it.
func TestStepAllocsGroup8(t *testing.T) {
	sr, stat := group8Series(t, 2000)
	const perStepBudget = 10.5
	avg := testing.AllocsPerRun(3, func() {
		e := group8Engine(t, stat)
		for i := 0; i < sr.Len(); i++ {
			if err := e.Step(sr.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	if perStep := avg / float64(sr.Len()); perStep > perStepBudget {
		t.Errorf("%.2f allocs per Step on the 8-member group, budget %.1f", perStep, perStepBudget)
	}
}

// TestSeqCounts covers the generational utility index directly, including
// rebase-on-empty, prefix reclamation and the defensive rewind path.
func TestSeqCounts(t *testing.T) {
	var u seqCounts
	if u.Len() != 0 || u.get(0) != 0 {
		t.Fatal("zero value not empty")
	}
	u.inc(100)
	u.inc(100)
	u.inc(101)
	if u.get(100) != 2 || u.get(101) != 1 || u.Len() != 2 {
		t.Fatalf("counts %d/%d len %d", u.get(100), u.get(101), u.Len())
	}
	u.dec(100)
	u.dec(100)
	if u.get(100) != 0 || u.Len() != 1 {
		t.Fatalf("after drain: %d len %d", u.get(100), u.Len())
	}
	// Deleting an absent seq is a no-op, as with the old map.
	u.dec(50)
	u.dec(100)
	if u.Len() != 1 {
		t.Fatal("no-op decs changed length")
	}
	u.dec(101)
	if u.Len() != 0 {
		t.Fatal("index not empty after draining all")
	}
	// Rebase after empty: a much larger seq must not grow the window.
	u.inc(1 << 20)
	if u.Len() != 1 || u.get(1<<20) != 1 || len(u.buf) != 1 {
		t.Fatalf("rebase failed: len %d count %d buf %d", u.Len(), u.get(1<<20), len(u.buf))
	}
	// Defensive rewind below the base goes to the sparse overflow.
	u.inc(1<<20 - 3)
	if u.get(1<<20-3) != 1 || u.get(1<<20) != 1 || u.Len() != 2 {
		t.Fatalf("rewind lost counts: %d %d len %d", u.get(1<<20-3), u.get(1<<20), u.Len())
	}
	u.dec(1<<20 - 3)
	if u.get(1<<20-3) != 0 || u.Len() != 1 {
		t.Fatalf("overflow drain failed: %d len %d", u.get(1<<20-3), u.Len())
	}
	// A far-ahead sequence (sparse or adversarial numbering) must not
	// grow the dense window proportionally to the gap.
	var sp seqCounts
	sp.inc(0)
	sp.inc(1 << 40)
	sp.inc(1 << 40)
	if len(sp.buf) > maxDenseSpan {
		t.Fatalf("sparse inc grew the dense window to %d slots", len(sp.buf))
	}
	if sp.get(0) != 1 || sp.get(1<<40) != 2 || sp.Len() != 2 {
		t.Fatalf("sparse counts wrong: %d %d len %d", sp.get(0), sp.get(1<<40), sp.Len())
	}
	sp.dec(1 << 40)
	sp.dec(1 << 40)
	sp.dec(0)
	if sp.Len() != 0 {
		t.Fatalf("sparse drain left %d entries", sp.Len())
	}
	// A long advancing stream keeps the buffer near the live window.
	var w seqCounts
	for i := 0; i < 100000; i++ {
		w.inc(i)
		if i >= 8 {
			w.dec(i - 8)
		}
	}
	if w.Len() != 8 {
		t.Fatalf("live window %d, want 8", w.Len())
	}
	if len(w.buf)-w.head > 4096 {
		t.Fatalf("window storage %d slots for 8 live entries; prefix not reclaimed", len(w.buf)-w.head)
	}
}
