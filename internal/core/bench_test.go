package core

import (
	"fmt"
	"testing"

	"gasf/internal/filter"
	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// group8Members is the member count of the benchmark group: one NAMOS
// source with 8 DC1 subscribers, the shape of perfbench's groups workload.
const group8Members = 8

// group8Series builds a NAMOS trace of n tuples and the mean absolute
// change of tmpr4, which scales the group's deltas.
func group8Series(tb testing.TB, n int) (*tuple.Series, float64) {
	tb.Helper()
	sr, err := trace.NAMOS(trace.Config{N: n, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	stat, err := sr.MeanAbsChange("tmpr4")
	if err != nil {
		tb.Fatal(err)
	}
	return sr, stat
}

// group8Engine builds a dynamic engine and joins 8 DC1 members on tmpr4,
// deltas spread from 1x to 3.6x stat with slack delta/2, as the groups
// workload subscribes them.
func group8Engine(tb testing.TB, stat float64) *Engine {
	tb.Helper()
	e, err := NewDynamicEngine(Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < group8Members; i++ {
		delta := (1 + float64(i)*2.6/float64(group8Members-1)) * stat
		f, err := filter.NewDC1(fmt.Sprintf("app%d", i+1), "tmpr4", delta, delta/2)
		if err != nil {
			tb.Fatal(err)
		}
		if err := e.AddFilter(f); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// BenchmarkEngineStepGroup8 measures one Engine.Step of the 8-member
// group, the engine layer of the groups workload on its own. A fresh
// engine starts, untimed, each time the trace wraps.
func BenchmarkEngineStepGroup8(b *testing.B) {
	sr, stat := group8Series(b, 1<<14)
	var e *Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % sr.Len()
		if k == 0 {
			b.StopTimer()
			e = group8Engine(b, stat)
			b.StartTimer()
		}
		if err := e.Step(sr.At(k)); err != nil {
			b.Fatal(err)
		}
	}
}
