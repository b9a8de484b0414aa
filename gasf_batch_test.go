package gasf_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"gasf"
	"gasf/internal/core"
	"gasf/internal/wire"
)

// batchFingerprint wire-encodes a result's released sequence with each
// release instant, then its punctuations, for byte-identical comparison.
func batchFingerprint(t *testing.T, res *gasf.Result) []byte {
	t.Helper()
	var buf []byte
	for _, tr := range res.Transmissions {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(tr.ReleasedAt.UnixNano()))
		var err error
		if buf, err = wire.AppendTransmission(buf, tr.Tuple, tr.Destinations); err != nil {
			t.Fatalf("encoding transmission: %v", err)
		}
	}
	for _, p := range res.Punctuations {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.At.UnixNano()))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Horizon.UnixNano()))
	}
	return buf
}

// sameBatchResult compares two results of the same run: the released
// bytes, the punctuations and every Stats field but the wall-clock CPU
// times, latency samples included.
func sameBatchResult(t *testing.T, got, want *gasf.Result) error {
	t.Helper()
	if len(want.Transmissions) == 0 {
		return fmt.Errorf("reference run released nothing")
	}
	if g, w := batchFingerprint(t, got), batchFingerprint(t, want); string(g) != string(w) {
		return fmt.Errorf("released sequence differs (%d transmissions, %d punctuations; want %d, %d)",
			len(got.Transmissions), len(got.Punctuations), len(want.Transmissions), len(want.Punctuations))
	}
	gs, ws := got.Stats, want.Stats
	if len(gs.Latencies) != len(ws.Latencies) || !slices.Equal(gs.Latencies, ws.Latencies) {
		return fmt.Errorf("%d latency samples, want %d", len(gs.Latencies), len(ws.Latencies))
	}
	gs.CPU, gs.GreedyCPU, gs.Latencies = 0, 0, nil
	ws.CPU, ws.GreedyCPU, ws.Latencies = 0, 0, nil
	if fmt.Sprintf("%+v", gs) != fmt.Sprintf("%+v", ws) {
		return fmt.Errorf("stats %+v, want %+v", gs, ws)
	}
	return nil
}

// TestBatchWrappersMatchCoreRun pins the batch wrappers to the engine:
// gasf.Run and RunSharded must return exactly the Result core.Run does
// for the same group and series — transmissions, release instants,
// punctuations and Stats — under both algorithms and every output
// strategy. A wrapper whose engines handed their releases to a sink
// would return an empty transmission list and fail here.
func TestBatchWrappersMatchCoreRun(t *testing.T) {
	sr, err := gasf.NAMOS(gasf.TraceConfig{N: 400, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	group := func() []gasf.Filter {
		a, _ := gasf.NewDCFilter("A", "fluoro", 0.10, 0.05)
		b, _ := gasf.NewDCFilter("B", "fluoro", 0.22, 0.10)
		c, _ := gasf.NewDCFilter("C", "tmpr4", 0.30, 0.12)
		return []gasf.Filter{a, b, c}
	}
	for _, alg := range []gasf.Algorithm{gasf.RG, gasf.PS} {
		for _, strat := range []gasf.OutputStrategy{gasf.EarliestRegion, gasf.PerCandidateSet, gasf.Batched} {
			for _, cuts := range []bool{false, true} {
				opts := gasf.Options{Algorithm: alg, Strategy: strat, EmitPunctuations: true, ShardCount: 2}
				if strat == gasf.Batched {
					opts.BatchSize = 16
				}
				if cuts {
					opts.Cuts, opts.MaxDelay = true, 60*time.Millisecond
				}
				t.Run(fmt.Sprintf("%v/%v/cuts=%v", alg, strat, cuts), func(t *testing.T) {
					want, err := core.Run(group(), sr, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := gasf.Run(group(), sr, opts)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameBatchResult(t, got, want); err != nil {
						t.Errorf("gasf.Run: %v", err)
					}
					groups := map[string][]gasf.Filter{}
					series := map[string]*gasf.Series{}
					for i := 0; i < 3; i++ {
						name := fmt.Sprintf("buoy%d", i)
						groups[name], series[name] = group(), sr
					}
					results, _, err := gasf.RunSharded(groups, series, opts)
					if err != nil {
						t.Fatal(err)
					}
					for name := range groups {
						if err := sameBatchResult(t, results[name], want); err != nil {
							t.Errorf("RunSharded %s: %v", name, err)
						}
					}
				})
			}
		}
	}
}
