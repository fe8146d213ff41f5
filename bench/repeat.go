package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// exactOnSim are the sim_meiko counts that must repeat bit for bit from
// one process to the next when the seed is the same.
var exactOnSim = []string{"des.events_fired", "simsrv.drop_ratio", "simsrv.mean_response_s"}

// runChild performs one run in a fresh process, as the driver does, so
// no run inherits another's heap, page cache share or resident-set peak.
func runChild(workload string, seed int64, seconds int, traced bool) (*runOutput, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out runOutput
	if jerr := json.Unmarshal(lines[len(lines)-1], &out); jerr != nil {
		return nil, fmt.Errorf("%s seed %d: %v; no result line in:\n%s", workload, seed, err, stdout)
	}
	if err != nil || !out.Correct {
		return &out, fmt.Errorf("%s seed %d: run was not correct (%d of %d failed; %v):\n%s",
			workload, seed, out.Failed, out.Attempted, err, stdout)
	}
	return &out, nil
}

// repeatAll runs every workload n times, walking the workload list
// forwards and backwards in turn so no workload always runs after the
// same neighbour. Untraced rounds use seeds seed, seed+1, ... like the
// driver's acceptance check; traced rounds reuse one seed so the exact
// counts can be held against each other.
func repeatAll(root string, n int, seed int64, seconds int, traced bool, outPath string) error {
	s, err := loadSpec(root)
	if err != nil {
		return err
	}
	file := &runFile{}
	for round := 0; round < n; round++ {
		order := slices.Clone(s.Workloads)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		runSeed := seed
		if !traced {
			runSeed += int64(round)
		}
		for _, wl := range order {
			fmt.Fprintf(os.Stderr, "round %d/%d: %s seed %d\n", round+1, n, wl.Name, runSeed)
			out, err := runChild(wl.Name, runSeed, seconds, traced)
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, runRecord{Workload: wl.Name, Seed: runSeed, Traced: traced, Output: *out})
		}
		// Saved after every round: an interrupted study keeps what it has.
		if outPath != "" {
			b, err := json.MarshalIndent(file, "", " ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(outPath, b, 0o644); err != nil {
				return err
			}
		}
	}
	printSpreads(s, file, traced)
	if traced {
		for _, name := range exactOnSim {
			if vs := file.values(wlSimMeiko, name, true); slices.Min(vs) != slices.Max(vs) {
				return fmt.Errorf("%s on %s differs between runs of one seed: %v", name, wlSimMeiko, vs)
			}
		}
	}
	return nil
}

// printSpreads is the table the demotion rule and the acceptance check
// read: per (workload, metric) the median, the quartiles, (Q3-Q1)/median
// as the driver computes it, and max/min.
func printSpreads(s benchSpec, f *runFile, traced bool) {
	type row struct{ name, unit string }
	var rows []row
	bounds := map[string]float64{}
	if traced {
		for _, m := range s.PerLayer {
			rows = append(rows, row{m.Name, m.Unit})
		}
	} else {
		for _, m := range s.EndToEnd {
			rows = append(rows, row{m.Name, m.Unit})
			bounds[m.Name] = m.Bound
		}
	}
	fmt.Printf("| %-16s | %-28s | %-6s | %12s | %12s | %12s | %8s | %9s | %s\n",
		"workload", "metric", "unit", "median", "q1", "q3", "iqr %", "max/min %", "note")
	fmt.Println("|" + strings.Repeat("-", 130))
	for _, wl := range s.Workloads {
		for _, r := range rows {
			vs := f.values(wl.Name, r.name, traced)
			if len(vs) == 0 {
				continue
			}
			q1, _, q3 := quartiles(vs)
			iqr := iqrSpread(vs)
			note := ""
			if b, ok := bounds[r.name]; ok && r.name != "setup_s" {
				switch {
				case iqr > b:
					note = "spread exceeds the bound"
				case iqr > b/3:
					note = "spread above a third of the bound"
				}
			}
			fmt.Printf("| %-16s | %-28s | %-6s | %12.4f | %12.4f | %12.4f | %8.2f | %9.2f | %s\n",
				wl.Name, r.name, r.unit, median(vs), q1, q3, 100*iqr,
				100*ratio(slices.Max(vs)-slices.Min(vs), slices.Min(vs)), note)
		}
	}
}
