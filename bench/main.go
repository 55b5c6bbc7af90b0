// Command bench is the repository's one benchmark: what a full
// watchdog cycle costs per verdict, what the daemon does over a real
// socket, and a per-layer ledger that says where the time goes. See
// README.md in this directory for the metrics and workloads, and
// BENCHMARK.json at the repository root for the contract.
//
//	go run ./bench                         every workload, untraced then traced
//	go run ./bench -workload cycle8_fixed  one workload, in this process
//
// A run of one workload prints every metric by name with its unit,
// checks the outputs, and ends with one JSON object on the last line of
// standard output: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// outDir is where a run leaves spans, profiles and temporary state,
// relative to the repository root the benchmark is run from.
const outDir = "bench/out"

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all four, each in a child process, untraced then traced)")
		seed    = flag.Uint64("seed", 1, "base seed: the trial seeds and the request mix derive from it")
		seconds = flag.Int("seconds", 26, "how long one run measures; sizes the cycle count and the traffic phases")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer ledger (spans, CPU profiles, layer probes)")
	)
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if _, err := os.Stat("bench/main.go"); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root (go run ./bench)")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(w, runConfig{
		seed: *seed, seconds: *seconds, traced: *trace == 1,
		outDir: outDir, scale: w.scaleFor(*seconds),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printResult prints the readable block and, last, the contract's line.
func printResult(res *result) {
	pass := "end-to-end (untraced)"
	defs := endToEnd
	if res.Traced {
		pass, defs = "per-layer (traced)", perLayer
	}
	e := res.Environment
	fmt.Printf("== %s  seed %d  %d s  %s\n", res.Workload, res.Seed, res.Seconds, pass)
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d %s kernel=%s state_fs=%s\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.StateFS)
	for _, d := range defs {
		fmt.Printf("%-40s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	c := res.Counts
	fmt.Printf("counts: verdicts=%d trials_run=%d trials_counted=%d trials_discarded=%d packets_arrived=%d journal_records=%d\n",
		c.Verdicts, c.TrialsRun, c.TrialsCounted, c.TrialsDiscarded, c.PacketsArrived, c.JournalRecords)
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var samples []string
	for _, k := range keys {
		samples = append(samples, fmt.Sprintf("%s=%d", k, res.Samples[k]))
	}
	fmt.Printf("samples: %s\n", strings.Join(samples, " "))
	for _, phase := range []string{"reads", "writes", "writes_beside_reads"} {
		if per, ok := res.PerConn[phase]; ok {
			fmt.Printf("requests completed per connection, %s: %v\n", phase, per)
		}
	}
	fmt.Printf("failed_ops_ratio: %d / %d\n", res.Failed, res.Attempted)
	fmt.Printf("digest: %s\n", res.Digest)
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	for _, p := range res.Problems {
		fmt.Println("OUTPUT CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in its own child process, untraced and
// then traced, and gathers what each left in bench/out into
// bench/out/results.json.
func runAll(seed uint64, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	var passes []json.RawMessage
	status := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			err := cmd.Run()
			fmt.Println()
			if err == nil {
				var data []byte
				if data, err = os.ReadFile(lastPath(outDir, w.name, trace == 1)); err == nil {
					passes = append(passes, data)
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.name, trace, err)
				status = 1
			}
		}
	}
	data, err := json.MarshalIndent(struct {
		Seed    uint64            `json:"seed"`
		Seconds int               `json:"seconds"`
		Passes  []json.RawMessage `json:"passes"`
	}{seed, seconds, passes}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("results written to %s\n", filepath.Join(outDir, "results.json"))
	return status
}
