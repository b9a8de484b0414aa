package experiments

import (
	"fmt"
	"time"

	"gasf/internal/core"
	"gasf/internal/metrics"
	"gasf/internal/quality"
	"gasf/internal/tuple"
)

// Table52Specs regenerates Table 5.2: the ten filter groups of the
// extensibility evaluation.
func Table52Specs(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	groups, err := quality.Table52(sr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Group", "Filter 1", "Filter 2", "Filter 3")
	for _, g := range groups {
		row := []string{g.Name}
		for _, sp := range g.Specs {
			row = append(row, sp.String())
		}
		tb.AddRow(row...)
	}
	return &Report{ID: "T5.2", Title: "Specifications for ten groups of filters", Text: tb.String(),
		Values: map[string]float64{"groups": float64(len(groups))}}, nil
}

// runTable52 executes GA (RG) and SI for every Table 5.2 group.
func runTable52(cfg Config) ([]quality.Group, []*core.Result, []*core.Result, error) {
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	groups, err := quality.Table52(sr, cfg.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	var gas, sis []*core.Result
	for _, g := range groups {
		ga, si, err := runGAAndSI(cfg, g, sr)
		if err != nil {
			return nil, nil, nil, err
		}
		gas, sis = append(gas, ga), append(sis, si)
	}
	return groups, gas, sis, nil
}

// runGAAndSI runs one Table 5.2 group group-aware (RG), then
// self-interested.
func runGAAndSI(cfg Config, g quality.Group, sr *tuple.Series) (ga, si *core.Result, err error) {
	ga, err = runVariant(g, sr, variant{name: "RG", opts: core.Options{Algorithm: core.RG, MulticastDelay: cfg.MulticastDelay}})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", g.Name, err)
	}
	si, err = runVariant(g, sr, variant{name: "SI", si: true, opts: core.Options{MulticastDelay: cfg.MulticastDelay}})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", g.Name, err)
	}
	return ga, si, nil
}

// Fig52OutputRatio regenerates Fig 5.2: output ratio per batch of 100
// tuples for the ten groups (average and median). Paper shape: eight of
// ten groups fall below 0.80; sampling-only groups benefit least.
func Fig52OutputRatio(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	groups, gas, sis, err := runTable52(cfg)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("group", "avg output ratio", "median output ratio")
	vals := make(map[string]float64)
	for i, g := range groups {
		avg, median := batchOutputRatio(gas[i], sis[i], cfg.N, 100)
		tb.AddRow(g.Name, fmtRatio(avg), fmtRatio(median))
		vals[g.Name+"/avg"] = avg
		vals[g.Name+"/median"] = median
	}
	return &Report{ID: "F5.2", Title: "Benefit of group-aware filtering", Text: tb.String(), Values: vals}, nil
}

// Table53CPUBatch regenerates Table 5.3: average CPU cost per batch of 100
// tuples, group-aware versus self-interested.
func Table53CPUBatch(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	groups, gas, sis, err := runTable52(cfg)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Group", "Group-aware (ms)", "Self-interested (ms)")
	vals := make(map[string]float64)
	perBatch := func(r *core.Result) float64 {
		if r.Stats.Inputs == 0 {
			return 0
		}
		return float64(r.Stats.CPU) / float64(r.Stats.Inputs) * 100 / float64(time.Millisecond)
	}
	for i, g := range groups {
		ga, si := perBatch(gas[i]), perBatch(sis[i])
		tb.AddRow(g.Name, fmt.Sprintf("%.3f", ga), fmt.Sprintf("%.3f", si))
		vals[g.Name+"/ga"] = ga
		vals[g.Name+"/si"] = si
	}
	return &Report{ID: "T5.3", Title: "Average CPU cost per batch of 100 tuples", Text: tb.String(), Values: vals}, nil
}

// fig53Runs is how many times Fig53OverheadRatio runs each engine of a
// group. Stats.CPU is wall time, so a single run can absorb a scheduling
// stall of either side; the minimum over alternating runs estimates each
// engine's own cost.
const fig53Runs = 5

// Fig53OverheadRatio regenerates Fig 5.3: the CPU overhead ratio
// (group-aware over self-interested) per group, from each side's minimum
// CPU over fig53Runs alternating runs. Paper shape: between ~1.5x and ~3x.
func Fig53OverheadRatio(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	groups, err := quality.Table52(sr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("group", "CPU overhead ratio")
	vals := make(map[string]float64)
	for _, g := range groups {
		var gaCPU, siCPU time.Duration
		for r := 0; r < fig53Runs; r++ {
			ga, si, err := runGAAndSI(cfg, g, sr)
			if err != nil {
				return nil, err
			}
			if r == 0 || ga.Stats.CPU < gaCPU {
				gaCPU = ga.Stats.CPU
			}
			if r == 0 || si.Stats.CPU < siCPU {
				siCPU = si.Stats.CPU
			}
		}
		ratio := 0.0
		if siCPU > 0 {
			ratio = float64(gaCPU) / float64(siCPU)
		}
		tb.AddRow(g.Name, fmt.Sprintf("%.2f", ratio))
		vals[g.Name] = ratio
	}
	return &Report{ID: "F5.3", Title: "CPU overhead ratios", Text: tb.String(), Values: vals}, nil
}
