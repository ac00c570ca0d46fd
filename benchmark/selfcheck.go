package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck runs two interleaved sets of n runs of this tree per
// workload, each run in its own process with its own seed, and holds
// the benchmark to its own bounds: the two set medians of every
// end-to-end metric must agree within the metric's bound, and (except
// for setup_s) each set's interquartile spread must stay within it
// too - the same two tests the comparison driver applies before it
// trusts a benchmark. only restricts it to one workload.
func selfCheck(out io.Writer, n int, seed uint64, seconds float64, scale, tmp, only string) bool {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(out, "selfcheck: %v\n", err)
		return false
	}
	ok := true
	for _, wl := range workloadSpecs {
		if only != "" && only != wl.Name {
			continue
		}
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
		}
		for i := 0; i < n; i++ {
			for set := range sets {
				s := seed + uint64(set*n+i)
				sum, err := runChild(exe, wl.Name, s, seconds, scale, tmp)
				if err != nil {
					fmt.Fprintf(out, "selfcheck: %s seed %d: %v\n", wl.Name, s, err)
					return false
				}
				for name, v := range sum.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
				fmt.Fprintf(out, "run %-12s set %c seed %-3d work_per_s %.4g p50 %.4g ms\n", wl.Name, 'A'+set, s,
					sum.Metrics["work_per_s"].Value, sum.Metrics["latency_p50_ms"].Value)
			}
		}
		fmt.Fprintf(out, "\n%-12s %-22s %12s %8s %12s %8s %8s %9s %6s\n", wl.Name, "metric", "median A", "spread", "median B", "spread", "pooled", "disagree", "bound")
		for _, m := range endToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			disagree := math.Abs(mb-ma) / ma
			verdict := "ok"
			if disagree > m.Bound {
				verdict = "MEDIANS DISAGREE"
				ok = false
			}
			for _, sp := range []float64{spread(a), spread(b)} {
				if m.Name != "setup_s" && sp > m.Bound {
					verdict = "SPREAD OVER BOUND"
					ok = false
				} else if m.Name != "setup_s" && sp > m.Bound/3 && verdict == "ok" {
					verdict = "ok (spread over a third of the bound)"
				}
			}
			// pooled is the spread of all 2n runs: what a single set of
			// that many seeds would show.
			pooled := spread(append(append([]float64(nil), a...), b...))
			fmt.Fprintf(out, "%-12s %-22s %12.5g %7.2f%% %12.5g %7.2f%% %7.2f%% %8.2f%% %5.0f%%  %s\n", "", m.Name,
				ma, 100*spread(a), mb, 100*spread(b), 100*pooled, 100*disagree, 100*m.Bound, verdict)
		}
		fmt.Fprintln(out)
	}
	return ok
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// runChild runs one untraced run in a child process and parses the
// JSON object on its last line.
func runChild(exe, workload string, seed uint64, seconds float64, scale, tmp string) (*summary, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scale", scale, "-tmp", tmp, "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, stdout)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var sum summary
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
		return nil, fmt.Errorf("last line is not the result object: %w", err)
	}
	if !sum.Correct || sum.Failed > 0 {
		return nil, fmt.Errorf("run reported correct=%v, %d failed ops", sum.Correct, sum.Failed)
	}
	return &sum, nil
}
