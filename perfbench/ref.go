package main

import (
	"fmt"
	"os"
	"time"

	"gasf/internal/core"
	"gasf/internal/quality"
)

// The reference: a source's script replayed through core.Engine on one
// thread. It says which deliveries each application must receive, with
// which labels, and which script event released each transmission —
// the input whose arrival let the engine decide it, or a membership
// change, or the source's finish.

// refTx is one released transmission that reaches at least one live
// subscriber.
type refTx struct {
	seq      int
	labels   []string
	key      uint64
	releaser int // script index; len(script) stands for the finish
}

type reference struct {
	txs []refTx
	// live lists, per app, the transmissions it receives while
	// subscribed, in order.
	live map[string][]int32
	// logged lists, per app, every transmission whose labels name it:
	// what a durable log replays to it. It differs from live by the
	// outputs released when the app itself leaves, which the program
	// addresses to it (they were owed) but no longer delivers.
	logged map[string][]int32
	// waitFor[i], for a remove event i, is how many live deliveries the
	// app has been sent before it leaves.
	waitFor []int
	inputs  int
	// relAll is the releasing script event of every transmission the
	// engine released, pruned or not, in release order.
	relAll []int32

	// Timings of the single-thread replay.
	stepNs    samples
	controlNs samples
}

// labelKey hashes a label list in order.
func labelKey(labels []string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h = (h ^ uint64(l[i])) * prime
		}
		h *= prime // separator
	}
	return h
}

// buildReference replays in through a fresh dynamic engine with the
// program's default options. Labels are pruned to the apps registered
// at release: an app is registered from just before it joins the engine
// until just after it has left, as in both transports.
func buildReference(in *sourceInput) (*reference, error) {
	e, err := core.NewDynamicEngine(core.Options{})
	if err != nil {
		return nil, err
	}
	ref := &reference{
		live:    map[string][]int32{},
		logged:  map[string][]int32{},
		waitFor: make([]int, len(in.script)),
		inputs:  len(in.tuples),
		stepNs:  make(samples, 0, len(in.tuples)),
	}
	registered := map[string]bool{}
	sent := 0
	collect := func(releaser int, leaving string) {
		trs := e.Result().Transmissions
		for ; sent < len(trs); sent++ {
			tr := trs[sent]
			ref.relAll = append(ref.relAll, int32(releaser))
			var labels []string
			for _, d := range tr.Destinations {
				if registered[d] {
					labels = append(labels, d)
				}
			}
			if len(labels) == 0 {
				continue
			}
			idx := int32(len(ref.txs))
			ref.txs = append(ref.txs, refTx{seq: tr.Tuple.Seq, labels: labels, key: labelKey(labels), releaser: releaser})
			for _, app := range labels {
				ref.logged[app] = append(ref.logged[app], idx)
				if app != leaving {
					ref.live[app] = append(ref.live[app], idx)
				}
			}
		}
	}
	for i, ev := range in.script {
		switch ev.kind {
		case evStep:
			t0 := time.Now()
			err = e.Step(in.tuples[ev.input])
			ref.stepNs.add(float64(time.Since(t0)))
			collect(i, "")
		case evAdd:
			sp, perr := quality.Parse(in.specs[ev.app])
			if perr != nil {
				return nil, perr
			}
			f, berr := sp.Build(ev.app)
			if berr != nil {
				return nil, berr
			}
			registered[ev.app] = true
			t0 := time.Now()
			err = e.AddFilter(f)
			ref.controlNs.add(float64(time.Since(t0)))
		case evRemove:
			ref.waitFor[i] = len(ref.live[ev.app])
			t0 := time.Now()
			err = e.RemoveFilter(ev.app)
			ref.controlNs.add(float64(time.Since(t0)))
			collect(i, ev.app)
			delete(registered, ev.app)
		}
		if err != nil {
			return nil, fmt.Errorf("reference %s event %d: %w", in.name, i, err)
		}
	}
	if err := e.Finish(); err != nil {
		return nil, fmt.Errorf("reference %s finish: %w", in.name, err)
	}
	collect(len(in.script), "")
	return ref, nil
}

// rec is one delivery as a subscriber received it.
type rec struct {
	seq int32
	key uint64
	at  int64 // clock ns at receipt
}

// mismatches compares what an app received with the reference list and
// counts missing, extra and wrong deliveries. The first difference is
// reported on standard error under what.
func mismatches(what string, ref *reference, want []int32, got []rec) int {
	bad, first := 0, -1
	n := min(len(want), len(got))
	for j := 0; j < n; j++ {
		tx := &ref.txs[want[j]]
		if int32(tx.seq) != got[j].seq || tx.key != got[j].key {
			bad++
			if first < 0 {
				first = j
			}
		}
	}
	bad += max(len(want), len(got)) - n
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d deliveries differ from the reference (received %d)", what, bad, len(want), len(got))
		if first >= 0 {
			tx := &ref.txs[want[first]]
			fmt.Fprintf(os.Stderr, "; first at #%d: want seq %d labels %v released by event %d, got seq %d", first, tx.seq, tx.labels, tx.releaser, got[first].seq)
		}
		fmt.Fprintln(os.Stderr)
	}
	return bad
}
