package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkJSON is the part of BENCHMARK.json the program reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON() (benchmarkJSON, error) {
	var bj benchmarkJSON
	b, err := os.ReadFile(filepath.Join(benchDir(), "..", "BENCHMARK.json"))
	if err != nil {
		return bj, err
	}
	return bj, json.Unmarshal(b, &bj)
}

// pairSpread is the run-to-run spread of one (metric, workload) pair.
type pairSpread struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Spread   float64   `json:"spread"` // IQR/median with four or more values, else range/median
	Bound    float64   `json:"bound"`
	Within   bool      `json:"within"`
	// Resolves is twice the spread: the smallest worsening this pair can
	// show apart from run-to-run noise. Where it exceeds the bound the
	// pair is Unresolved: a later change that worsens it by one bound could
	// hide in the spread, so "no regression" there is unresolved, not proven.
	Resolves   float64 `json:"resolves"`
	Unresolved bool    `json:"unresolved"`
}

// spreadsFile is what -agree writes to spreads.json.
type spreadsFile struct {
	Env     envHeader    `json:"env"`
	Sets    int          `json:"sets"`
	Spreads []pairSpread `json:"spreads"`
}

// runAgree runs sets full sets of every workload BENCHMARK.json names,
// set i with seed+i as the driver does, and checks that each end-to-end metric's spread over
// the sets stays within its bound in BENCHMARK.json. With trace it also
// makes one traced run twice on one seed and checks that the count
// metrics, which come from the layer probes and so are the same whichever
// workload the run names, repeat exactly. The spreads it measured are
// written to spreads.json beside this file; they are what the bounds
// rest on.
func runAgree(seed uint64, seconds float64, trace bool, sets int) error {
	if sets < 2 {
		return fmt.Errorf("-agree needs at least 2 sets")
	}
	bj, err := readBenchmarkJSON()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → per set
	failedRuns := 0
	for i := 0; i < sets; i++ {
		for _, w := range bj.Workloads {
			fmt.Fprintf(os.Stderr, "agree: set %d/%d %s\n", i+1, sets, w.Name)
			res, err := runChild(w.Name, seed+uint64(i), seconds, false, nil)
			if err != nil {
				return err
			}
			if !res.Correct {
				failedRuns++
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
		}
	}
	out := spreadsFile{Env: newEnv(seed, seconds, fullSizes), Sets: sets}
	outside, unresolved := 0, 0
	for _, w := range bj.Workloads {
		for _, e := range bj.EndToEnd {
			vs := values[w.Name][e.Name]
			ps := pairSpread{Workload: w.Name, Metric: e.Name, Values: vs, Median: median(vs), Bound: e.Bound}
			if len(vs) >= 4 {
				ps.Spread = spread(vs)
			} else {
				ps.Spread = (slices.Max(vs) - slices.Min(vs)) / ps.Median
			}
			ps.Within = ps.Spread <= e.Bound
			ps.Resolves = 2 * ps.Spread
			ps.Unresolved = ps.Resolves > e.Bound
			if !ps.Within {
				outside++
			} else if ps.Unresolved {
				unresolved++
			}
			fmt.Printf("%s %s spread %.4f bound %.4f median %v n %d within %v unresolved %v\n", w.Name, e.Name, ps.Spread, e.Bound, ps.Median, len(vs), ps.Within, ps.Unresolved)
			out.Spreads = append(out.Spreads, ps)
		}
	}
	mismatched := 0
	if trace {
		w := bj.Workloads[0].Name
		fmt.Fprintf(os.Stderr, "agree: traced pair on %s\n", w)
		a, err := runChild(w, seed, seconds, true, nil)
		if err != nil {
			return err
		}
		b, err := runChild(w, seed, seconds, true, nil)
		if err != nil {
			return err
		}
		if !a.Correct || !b.Correct {
			failedRuns++
		}
		for _, name := range exactCounts {
			same := a.Metrics[name].Value == b.Metrics[name].Value
			if !same {
				mismatched++
			}
			fmt.Printf("%s %v %v exact %v\n", name, a.Metrics[name].Value, b.Metrics[name].Value, same)
		}
	}
	if err := writeJSON(filepath.Join(benchDir(), "spreads.json"), out); err != nil {
		return err
	}
	fmt.Printf("%d pairs within their bound but unresolved (spread over half the bound)\n", unresolved)
	if outside+mismatched+failedRuns > 0 {
		return fmt.Errorf("agree: %d pairs outside their bound, %d counts differ, %d runs with failures", outside, mismatched, failedRuns)
	}
	return nil
}
