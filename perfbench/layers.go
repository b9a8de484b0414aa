package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/core"
	"gasf/internal/quality"
	"gasf/internal/seglog"
	"gasf/internal/shard"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// Isolated layer runs for the traced run: the workload's own inputs and
// reference transmissions replayed through one layer's public functions
// at a time, so the ledger can set each layer's cost against the
// end-to-end latency.

type layerStats struct {
	encodeNs, decodeNs, bytesPerTx float64
	wireTxs                        int

	submitNs, handoffNs samples
	outs, sinkCalls     int
	parks               uint64
	maxDepth            int

	appendNs               samples
	readNsPerRecord        float64
	bytesPerRecord         float64
	seglogRan              bool
	singleThreadTuplesPerS float64
}

// wireLayer encodes and decodes every reference transmission.
func wireLayer(ins []*sourceInput, refs []*reference, ls *layerStats) error {
	var payloads [][]byte
	var n int
	var encTotal time.Duration
	for k, ref := range refs {
		in := ins[k]
		for _, tx := range ref.txs {
			t0 := time.Now()
			p, err := wire.AppendTransmission(nil, in.tuples[tx.seq], tx.labels)
			encTotal += time.Since(t0)
			if err != nil {
				return err
			}
			payloads = append(payloads, p)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	var bytes int
	var decTotal time.Duration
	i := 0
	for k, ref := range refs {
		for range ref.txs {
			t0 := time.Now()
			_, _, _, err := wire.DecodeTransmission(ins[k].schema, payloads[i])
			decTotal += time.Since(t0)
			if err != nil {
				return err
			}
			bytes += len(payloads[i])
			i++
		}
	}
	ls.wireTxs = n
	ls.encodeNs = float64(encTotal) / float64(n)
	ls.decodeNs = float64(decTotal) / float64(n)
	ls.bytesPerTx = float64(bytes) / float64(n)
	return nil
}

// shardLayer runs the inputs through a fresh shard.Runtime with the
// benchmark's own sink. batch is the submit size; with wait set, each
// submit waits for its outputs before the next, as a paced source's ticks
// do, so hand-off excludes queueing behind earlier work.
func shardLayer(ins []*sourceInput, refs []*reference, batch int, wait bool, ls *layerStats) error {
	clk := newClock()
	rt := shard.New(shard.Config{Shards: 2})
	type srcState struct {
		submitAt []int64 // per script event
		outs     atomic.Int64
		handoff  samples
	}
	states := map[string]*srcState{}
	for _, in := range ins {
		e, err := core.NewDynamicEngine(core.Options{})
		if err != nil {
			return err
		}
		if err := rt.AddSource(in.name, e); err != nil {
			return err
		}
		states[in.name] = &srcState{submitAt: make([]int64, len(in.script)+1)}
	}
	var calls atomic.Int64
	var sinkMu sync.Mutex
	sink := func(outs []shard.Out) {
		at := clk.now()
		calls.Add(1)
		sinkMu.Lock()
		defer sinkMu.Unlock()
		for _, o := range outs {
			st := states[o.Source]
			k := st.outs.Load()
			ref := refs[indexOf(ins, o.Source)]
			if int(k) < len(ref.relAll) {
				st.handoff.add(float64(at - st.submitAt[ref.relAll[k]]))
			}
			st.outs.Add(1)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	if err := rt.Start(ctx, sink); err != nil {
		return err
	}
	errs := make([]error, len(ins))
	var wg sync.WaitGroup
	var subMu sync.Mutex
	for k, in := range ins {
		wg.Add(1)
		go func(k int, in *sourceInput) {
			defer wg.Done()
			st, ref := states[in.name], refs[k]
			// released[i]: engine transmissions released by events before i.
			released := make([]int64, len(in.script)+2)
			for _, r := range ref.relAll {
				released[r+1]++
			}
			for i := 1; i < len(released); i++ {
				released[i] += released[i-1]
			}
			buf := make([]*tuple.Tuple, 0, batch)
			sc := in.script
			for i := 0; i < len(sc); {
				var err error
				switch sc[i].kind {
				case evStep:
					j := i
					buf = buf[:0]
					for j < len(sc) && sc[j].kind == evStep && len(buf) < batch {
						buf = append(buf, in.tuples[sc[j].input])
						j++
					}
					t0 := clk.now()
					for x := i; x < j; x++ {
						st.submitAt[x] = t0
					}
					err = rt.SubmitBatchContext(ctx, in.name, buf)
					dt := clk.now() - t0
					subMu.Lock()
					ls.submitNs.add(float64(dt))
					subMu.Unlock()
					i = j
				case evAdd:
					app := sc[i].app
					sp, perr := quality.Parse(in.specs[app])
					if perr != nil {
						errs[k] = perr
						return
					}
					f, berr := sp.Build(app)
					if berr != nil {
						errs[k] = berr
						return
					}
					st.submitAt[i] = clk.now()
					err = rt.ControlContext(ctx, in.name, func(e *core.Engine) error { return e.AddFilter(f) })
					i++
				case evRemove:
					app := sc[i].app
					st.submitAt[i] = clk.now()
					err = rt.ControlContext(ctx, in.name, func(e *core.Engine) error { return e.RemoveFilter(app) })
					i++
				}
				if err != nil {
					errs[k] = err
					return
				}
				for wait && st.outs.Load() < released[i] {
					if ctx.Err() != nil {
						errs[k] = fmt.Errorf("shard layer %s: outputs of event %d never reached the sink", in.name, i)
						return
					}
					time.Sleep(10 * time.Microsecond)
				}
			}
			st.submitAt[len(sc)] = clk.now()
			errs[k] = rt.FinishSourceWaitContext(ctx, in.name)
		}(k, in)
	}
	wg.Wait()
	if err := rt.Drain(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for k, in := range ins {
		st := states[in.name]
		if got, want := st.outs.Load(), int64(len(refs[k].relAll)); got != want {
			return fmt.Errorf("shard layer %s: sink saw %d transmissions, the reference released %d", in.name, got, want)
		}
		ls.handoffNs = append(ls.handoffNs, st.handoff...)
		ls.outs += int(st.outs.Load())
	}
	ls.sinkCalls += int(calls.Load())
	for _, m := range rt.Metrics() {
		ls.parks += m.ProducerParks
		ls.maxDepth = max(ls.maxDepth, m.MaxQueueDepth)
	}
	return nil
}

func indexOf(ins []*sourceInput, name string) int {
	for i, in := range ins {
		if in.name == name {
			return i
		}
	}
	return -1
}

// seglogLayer appends every reference transmission, encoded as the
// broker logs it, to a fresh log, then reads the log back.
func seglogLayer(dir string, ins []*sourceInput, refs []*reference, ls *layerStats) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := seglog.Open(dir, seglog.Options{})
	if err != nil {
		return err
	}
	records := 0
	var buf []byte
	for k, ref := range refs {
		in := ins[k]
		for _, tx := range ref.txs {
			buf, err = wire.AppendTransmission(buf[:0], in.tuples[tx.seq], tx.labels)
			if err != nil {
				log.Close()
				return err
			}
			t0 := time.Now()
			_, err = log.Append(in.name, buf)
			ls.appendNs.add(float64(time.Since(t0)))
			if err != nil {
				log.Close()
				return err
			}
			records++
		}
	}
	t0 := time.Now()
	read := 0
	for _, in := range ins {
		err := log.Read(in.name, 0, log.NextOffset(in.name), func(uint64, []byte) error {
			read++
			return nil
		})
		if err != nil {
			log.Close()
			return err
		}
	}
	readDur := time.Since(t0)
	if err := log.Close(); err != nil {
		return err
	}
	if read != records {
		return fmt.Errorf("seglog layer: read %d records, appended %d", read, records)
	}
	var size int64
	err = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			size += fi.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	if records > 0 {
		ls.readNsPerRecord = float64(readDur) / float64(records)
		ls.bytesPerRecord = float64(size) / float64(records)
	}
	ls.seglogRan = true
	return nil
}
