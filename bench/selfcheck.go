package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
)

// selfcheck answers "do two sets of runs of the same code agree within
// the benchmark's own bounds?". It runs 2 x sets full invocations (every
// workload, untraced, one child process each), alternating between set A
// and set B; invocation i of either set uses seed+i, so the spread within
// a set includes what the seed moves. For every workload and end-to-end
// metric it prints both medians, their relative gap, each set's
// inter-quartile spread as a share of its median, and the bound, and it
// fails if a gap exceeds half the bound.
func selfcheck(spec *benchSpec, o options) int {
	// values[set][workload][metric] lists one reading per invocation.
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = make(map[string]map[string][]float64)
		for _, w := range spec.Workloads {
			values[s][w.Name] = make(map[string][]float64)
		}
	}
	for i := 0; i < o.sets; i++ {
		for s := range values {
			for _, w := range spec.Workloads {
				res, err := invoke(o, w.Name, o.seed+uint64(i))
				if err != nil {
					return fatal(fmt.Errorf("selfcheck: set %c invocation %d workload %s: %w", 'A'+s, i, w.Name, err))
				}
				for name, m := range res.Metrics {
					values[s][w.Name][name] = append(values[s][w.Name][name], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "selfcheck: set %c invocation %d of %d done\n", 'A'+s, i+1, o.sets)
		}
	}

	fmt.Printf("selfcheck: 2 sets x %d invocations, seeds %d..%d, %g s of pinned work each\n", o.sets, o.seed, o.seed+uint64(o.sets)-1, o.seconds)
	fmt.Printf("%-15s %-14s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound", "verdict")
	failed := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			ma, mb := median(a), median(b)
			gap := math.Abs(mb-ma) / math.Abs(ma)
			verdict := "ok"
			if !(gap <= m.Bound/2) {
				verdict = "GAP > BOUND/2"
				failed++
			}
			fmt.Printf("%-15s %-14s %12.5g %12.5g %7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*gap, 100*spread(a), 100*spread(b), 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		fmt.Printf("selfcheck: FAILED, %d workload x metric gaps exceed half their bound\n", failed)
		return 1
	}
	fmt.Println("selfcheck: passed, every gap is within half its bound")
	return 0
}

// invoke runs one untraced single-workload child and parses the result
// line it ends with.
func invoke(o options, workload string, seed uint64) (*result, error) {
	cmd := exec.Command(os.Args[0], childArgs(o, workload, seed, 0)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := runChild(cmd); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte{'\n'})
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("correct=%v, %d of %d ops failed:\n%s", res.Correct, res.Failed, res.Attempted, out.Bytes())
	}
	return &res, nil
}
