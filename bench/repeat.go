package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// runChild runs one workload in a fresh process of this binary, so memory
// and GC state are the workload's own, and returns its result.
func runChild(self string, w workload, c config) (result, error) {
	trace := "0"
	if c.traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-ops", strconv.FormatInt(c.ops, 10),
		"-trace", trace, "-out", c.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", w.name, err)
	}
	return res, nil
}

// runSets runs every workload n times over, each run in its own process.
// With n > 1 it then reports, per workload and end-to-end metric, the
// quartiles and the largest deviation from the median, fails if the spread
// between the quartiles exceeds the bound BENCHMARK.json records, and
// prints the bounds the spreads seen would justify.
func runSets(c config, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	for range n {
		for _, w := range workloads {
			res, err := runChild(self, w, c)
			if err != nil {
				return err
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
		}
	}
	if n < 2 || c.traced {
		return nil
	}
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("judging spreads needs the bounds: %w", err)
	}
	strayed := 0
	fmt.Printf("# %d sets, seed %d; spread = (q3-q1)/median as statistics.quantiles(n=4) gives them\n", n, c.seed)
	fmt.Println(`# paste into BENCHMARK.json "end_to_end" after review:`)
	for _, em := range man.EndToEnd {
		worst := 0.0
		for _, w := range workloads {
			q1, q2, q3 := quartiles(values[w.name][em.Name])
			spread := math.Abs(ratio(q3-q1, q2))
			dev := 0.0
			for _, v := range values[w.name][em.Name] {
				dev = max(dev, math.Abs(ratio(v-q2, q2)))
			}
			verdict := "ok"
			if em.Name == "setup_s" {
				// Its bound limits how far a later commit may move the
				// median; its spread is not held to it.
				verdict = "not-judged"
			} else if spread > em.Bound {
				verdict = "STRAYED"
				strayed++
			}
			fmt.Printf("workload=%s metric=%s q1=%g median=%g q3=%g unit=%s spread=%.4f max_dev=%.4f bound=%g %s\n",
				w.name, em.Name, q1, q2, q3, em.Unit, spread, dev, em.Bound, verdict)
			worst = max(worst, spread)
		}
		// Three times the widest spread seen (a spread should stay below a
		// third of its bound), at least 1 %, at most the 25 % the contract
		// allows; set-up time gets that maximum.
		bound := math.Ceil(min(max(3*worst, 0.01), 0.25)*100) / 100
		if em.Name == "setup_s" {
			bound = 0.25
		}
		fmt.Printf(`    {"name": %q, "unit": %q, "better": %q, "bound": %g},`+"\n", em.Name, em.Unit, em.Better, bound)
	}
	if strayed > 0 {
		return fmt.Errorf("%d workload/metric pairs strayed past their bound", strayed)
	}
	return nil
}
