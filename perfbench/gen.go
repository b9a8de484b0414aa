package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// The load generator (layer "gen"): every input the program receives is
// made here from the run's seed, before the measured phase starts.

type evKind uint8

const (
	evStep   evKind = iota // publish input tuples[input]
	evAdd                  // app joins the group with its spec
	evRemove               // app leaves the group
)

// event is one step of a source's script. Steps between membership
// changes are published in batches; a change happens at the boundary
// between two batches.
type event struct {
	kind  evKind
	input int
	app   string
}

// sourceInput is everything one source receives: its tuples, the specs of
// its applications, and the order in which tuples and membership changes
// happen.
type sourceInput struct {
	name   string
	schema *tuple.Schema
	tuples []*tuple.Tuple
	specs  map[string]string
	apps   []string
	script []event
}

// inputEvent maps each input index to the index of its step in the
// script.
func (in *sourceInput) inputEvent() []int {
	idx := make([]int, len(in.tuples))
	for i, ev := range in.script {
		if ev.kind == evStep {
			idx[ev.input] = i
		}
	}
	return idx
}

// groupMembers is the member count of each NAMOS source's group.
const groupMembers = 8

// namosSource builds one NAMOS source of n tuples whose 8 DC1 specs on
// tmpr4 are spread like shard.BuildWorkload: delta from 1x to 3.6x the
// mean absolute change, slack delta/2.
func namosSource(name string, n int, seed int64) (*sourceInput, error) {
	sr, err := trace.NAMOS(trace.Config{N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	stat, err := sr.MeanAbsChange("tmpr4")
	if err != nil {
		return nil, err
	}
	in := &sourceInput{name: name, schema: sr.Schema(), tuples: sr.Tuples(), specs: map[string]string{}}
	for i := 0; i < groupMembers; i++ {
		mult := 1 + float64(i)*2.6/float64(groupMembers-1)
		delta := mult * stat
		app := fmt.Sprintf("app%d", i+1)
		in.apps = append(in.apps, app)
		in.specs[app] = fmt.Sprintf("DC1(tmpr4, %s, %s)", fnum(delta), fnum(delta/2))
	}
	return in, nil
}

func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// steadyScript is: every app joins, then every tuple is published.
func steadyScript(in *sourceInput) {
	in.script = in.script[:0]
	for _, app := range in.apps {
		in.script = append(in.script, event{kind: evAdd, app: app})
	}
	for i := range in.tuples {
		in.script = append(in.script, event{kind: evStep, input: i})
	}
}

// resumeScript is steadyScript followed by every app leaving, so that
// each can resume from the durable log afterwards.
func resumeScript(in *sourceInput) {
	steadyScript(in)
	for _, app := range in.apps {
		in.script = append(in.script, event{kind: evRemove, app: app})
	}
}

// churnScript is: every app joins; then at every batch boundary, with
// probability churnProb, one app picked by the seed leaves (if another
// stays) or rejoins (if it had left); at the end every app still in the
// group leaves.
func churnScript(in *sourceInput, batch int, rng *rand.Rand) {
	const churnProb = 0.3
	in.script = in.script[:0]
	live := map[string]bool{}
	for _, app := range in.apps {
		in.script = append(in.script, event{kind: evAdd, app: app})
		live[app] = true
	}
	for i := range in.tuples {
		if i > 0 && i%batch == 0 && rng.Float64() < churnProb {
			app := in.apps[rng.Intn(len(in.apps))]
			switch {
			case !live[app]:
				in.script = append(in.script, event{kind: evAdd, app: app})
				live[app] = true
			case len(live) > 1:
				in.script = append(in.script, event{kind: evRemove, app: app})
				delete(live, app)
			}
		}
		in.script = append(in.script, event{kind: evStep, input: i})
	}
	for _, app := range in.apps {
		if live[app] {
			in.script = append(in.script, event{kind: evRemove, app: app})
		}
	}
}

// pacedSchema is the one-attribute schema of the paced workloads.
var pacedSchema = tuple.MustSchema("v")

// pacedSpec passes every input of a step-1 stream: each value differs
// from the last by 1 > delta, and with no slack the output for a tuple is
// decided, and released, when the next tuple arrives.
const pacedSpec = "DC1(v, 0.5, 0)"

// pacedSource builds n step-1 tuples due at i/rate from the trace epoch,
// stamped with their due times (a run re-stamps them once its schedule
// is fixed). The seed picks the starting value.
func pacedSource(name string, n int, rate float64, seed int64) *sourceInput {
	start := float64(rand.New(rand.NewSource(seed)).Intn(1 << 20))
	in := &sourceInput{name: name, schema: pacedSchema, specs: map[string]string{"sink": pacedSpec}, apps: []string{"sink"}}
	in.tuples = make([]*tuple.Tuple, n)
	for i := range in.tuples {
		in.tuples[i] = tuple.MustNew(pacedSchema, i, trace.Epoch.Add(dueOffset(i, rate)), []float64{start + float64(i)})
	}
	steadyScript(in)
	return in
}

// dueOffset is the due time of input i at rate inputs per second, from
// the schedule's start. Offsets strictly increase with i.
func dueOffset(i int, rate float64) time.Duration {
	return time.Duration(float64(i) * float64(time.Second) / rate)
}

// pacer is the open-loop generator: on each tick of a genTick grid it
// sends, in one batch, every input whose due time has passed. It never
// waits for the program, so a stalled program faces a growing backlog.
type pacer struct {
	n       int
	rate    float64
	base    int64 // clock ns of input 0's due time
	sent    int
	backlog int // largest number of due inputs waiting at a tick
}

// genTick is the generator's tick. A finer sleep overshoots by about a
// millisecond on small machines, so the schedule is kept coarse and each
// tick carries every input that fell due since the last one.
const genTick = time.Millisecond

// due returns how many inputs are due at clock time now.
func (p *pacer) due(now int64) int {
	if now < p.base {
		return 0
	}
	k := int(float64(now-p.base)*p.rate/float64(time.Second)) + 1
	if k > p.n {
		k = p.n
	}
	return k
}
