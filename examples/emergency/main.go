// Emergency response: the chlorine train-derailment scenario of §5.5.1.
//
// A chlorine-concentration source (Gaussian-puff plume model) streams
// readings at 10 tuples/s over a 7-node wireless mesh overlay formed by
// fire trucks, police cars and ambulances. Three command-and-control
// applications subscribe with different granularity needs:
//
//   - fire-prediction wants fine-grained concentration updates,
//   - responder-safety wants medium granularity with tight timeliness
//     (timely cuts bound its delay),
//   - situation-assessment tolerates coarse updates.
//
// The group-aware filtering service runs on an embedded broker at the
// source node; each released transmission is then multicast down the
// mesh tree to the subscribers' nodes, and the example reports the
// bandwidth spent versus self-interested filtering.
//
//	go run ./examples/emergency
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"gasf"
	"gasf/internal/multicast"
	"gasf/internal/overlay"
	"gasf/internal/trace"
	"gasf/internal/wire"
)

const sourceName = "chlorine/downtown"

// app is one command-and-control application: its granularity is a
// multiple of the source's observed variability, the way the paper's
// §4.3 derives deltas from srcStatistics.
type app struct {
	name         string
	delta, slack float64
}

var apps = []app{
	{"fire-prediction", 4, 2},
	{"responder-safety", 5.5, 2.75},
	{"situation-assessment", 7, 3.5},
}

// spec renders the app's DC1 specification for a source statistic. The
// shortest exact float rendering keeps the parsed deltas bit-identical
// to the products computed here.
func (a app) spec(stat float64) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return fmt.Sprintf("DC1(chlorine, %s, %s)", f(a.delta*stat), f(a.slack*stat))
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// The plume model: wind carries the release past a sensor 400 m
	// downwind.
	series, err := trace.Chlorine(trace.ChlorineConfig{
		Config:    trace.Config{N: 6000, Seed: 11, Interval: 100 * time.Millisecond},
		WindSpeed: 2.5,
	})
	if err != nil {
		return err
	}
	stat, err := series.MeanAbsChange("chlorine")
	if err != nil {
		return err
	}

	// Mesh overlay: routers on the emergency vehicles. The source sits on
	// node 0, the applications on nodes 2-4.
	net, err := overlay.New(overlay.Config{Nodes: 7, Seed: 3,
		Link: overlay.Link{Delay: 8 * time.Millisecond, Bandwidth: 1e6}})
	if err != nil {
		return err
	}

	// Responder safety is latency-critical: bound the filtering delay
	// with timely cuts at 3 s (loose enough to keep candidate sets —
	// and their bandwidth savings — intact; see Fig 4.12's trade-off).
	b, err := gasf.NewEmbedded(gasf.WithAlgorithm(gasf.RG), gasf.WithCuts(3*time.Second))
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	defer b.Close(ctx)
	src, err := b.OpenSource(ctx, sourceName, series.Schema())
	if err != nil {
		return err
	}

	// Every member delivery of a transmission carries the transmission's
	// full destination list, so keying by tuple sequence collects each
	// transmission once for the mesh multicast below.
	var (
		mu     sync.Mutex
		sent   = make(map[int]*gasf.Delivery)
		perApp = make(map[string]int)
		wg     sync.WaitGroup
	)
	members := make(map[string]overlay.NodeID, len(apps))
	errs := make(chan error, len(apps))
	for i, a := range apps {
		sub, err := b.Subscribe(ctx, a.name, sourceName, a.spec(stat))
		if err != nil {
			return err
		}
		members[a.name] = net.NodeByIndex(i + 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				d, err := sub.Recv(ctx)
				if errors.Is(err, gasf.ErrStreamEnded) {
					return
				}
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				perApp[sub.App()]++
				if _, ok := sent[d.Tuple.Seq]; !ok {
					sent[d.Tuple.Seq] = d
				}
				mu.Unlock()
			}
		}()
	}

	// Stream the plume live through the broker.
	for i := 0; i < series.Len(); i++ {
		if err := src.Publish(ctx, series.At(i)); err != nil {
			return err
		}
	}
	if err := src.Finish(ctx); err != nil {
		return err
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	if err := b.Close(ctx); err != nil {
		return err
	}

	// Disseminate every released transmission down the mesh tree,
	// accounting the encoded size of each label-pruned branch message.
	tree, err := multicast.BuildTree(net, net.NodeByIndex(0), members)
	if err != nil {
		return err
	}
	acct := multicast.NewAccounting()
	seqs := make([]int, 0, len(sent))
	for seq := range sent {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	var worstHop time.Duration
	for _, seq := range seqs {
		d := sent[seq]
		ds, err := tree.MulticastSized(d.Destinations, func(branch []string) int {
			return wire.TransmissionSize(d.Tuple, branch)
		}, acct)
		if err != nil {
			return err
		}
		for _, md := range ds {
			worstHop = max(worstHop, md.Delay)
		}
	}

	res := b.Results()[sourceName]
	fmt.Fprintf(w, "chlorine plume: %d readings streamed (srcStatistics %.3f)\n", series.Len(), stat)
	fmt.Fprintf(w, "group-aware output: %d distinct tuples (O/I %.3f), %d regions (%d cut)\n",
		res.Stats.DistinctOutputs, res.Stats.OIRatio(), res.Stats.Regions, res.Stats.RegionsCut)
	for _, a := range apps {
		fmt.Fprintf(w, "  %-22s received %4d updates\n", a.name, perApp[a.name])
	}
	fmt.Fprintf(w, "worst mesh-hop delay: %v (on top of the 3s cut budget at the source)\n", worstHop)
	fmt.Fprintf(w, "mesh traffic: %d bytes on links, %d bytes on the wireless medium\n",
		acct.TotalBytes(), acct.WirelessBytes())

	// Compare with self-interested filtering of the same stream.
	siFilters := make([]gasf.Filter, len(apps))
	for i, a := range apps {
		if siFilters[i], err = gasf.NewDCFilter(a.name, "chlorine", a.delta*stat, a.slack*stat); err != nil {
			return err
		}
	}
	si, err := gasf.RunSelfInterested(siFilters, series, gasf.Options{})
	if err != nil {
		return err
	}
	ratio := float64(res.Stats.DistinctOutputs) / float64(si.Stats.DistinctOutputs)
	fmt.Fprintf(w, "\nself-interested filtering would multicast %d distinct tuples;\n", si.Stats.DistinctOutputs)
	fmt.Fprintf(w, "group awareness reduced the bandwidth demand to %.0f%% of that.\n", ratio*100)
	return nil
}
