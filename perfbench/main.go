// Command perfbench is the repository's benchmark. One run sets up one
// workload (paper-rows, symmetric, litmus-sweep or check-service), runs
// passes over its fixed inputs for a fixed time, checks every verdict, and
// prints the end-to-end metrics; with -trace 1 it instead prints the
// per-layer metrics of a traced run. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 1725, "failed": 0, "metrics": {"wall_s": {"value": 0.13, "unit": "s"}, ...}}
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload paper-rows --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
//	bash perfbench/run.sh -compare parent.jsonl change.jsonl
//
// See README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	repo     string // repository root: testdata/herd and BENCHMARK.json
	out      string // where traced runs write spans and the CPU profile
	record   string // append a run record here (for -compare)
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var compare bool
	var writePins string
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+" or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "how long to run passes (0 = one pass)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&cfg.repo, "repo", ".", "repository root")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for traced-run spans and profiles")
	fs.StringVar(&cfg.record, "record", "", "append this run's result, with its seed and benchmark version, to this file")
	fs.BoolVar(&compare, "compare", false, "compare two record files: -compare PARENT CHANGE")
	fs.StringVar(&writePins, "write-pins", "", "run every pinned cell once and write the pins to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	switch {
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two record files: PARENT CHANGE")
			return 2
		}
		if err := compareFiles(stdout, cfg.repo, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case writePins != "":
		if err := writePinFile(writePins); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case cfg.workload == "all":
		return runAll(cfg, args, stdout, stderr)
	}
	w, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(cfg, w, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.record != "" {
		if err := appendRecord(cfg, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the run's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure is one printed metric with its sample count, for the table
// printed above the JSON line.
type measure struct {
	name    string
	unit    string
	value   float64
	samples int
}

// printTable prints one line per metric: name, value, unit, samples.
func printTable(w io.Writer, title string, ms []measure) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "%-36s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
}

func toMetrics(ms []measure) map[string]metric {
	out := make(map[string]metric, len(ms))
	for _, m := range ms {
		out[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	return out
}

// runAll runs every workload in its own process, so each reports its own
// peak memory, and prints their results; it fails when any workload does.
func runAll(cfg config, args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames() {
		child := append(withoutWorkload(args), "-workload", name)
		cmd := exec.Command(exe, child...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		var r result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s printed no result (%v)\n", name, err)
			return 1
		}
		total.Correct = total.Correct && r.Correct && err == nil
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, m := range r.Metrics {
			total.Metrics[name+"/"+k] = m
		}
	}
	line, _ := json.Marshal(total) // a map of plain numbers always marshals
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// withoutWorkload drops the -workload flag (either spelling, with its
// value) from an argument list.
func withoutWorkload(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		switch {
		case a == "workload":
			i++
		case strings.HasPrefix(a, "workload="):
		default:
			out = append(out, args[i])
		}
	}
	return out
}

// readBenchmarkSpec reads BENCHMARK.json from the repository root.
func readBenchmarkSpec(repo string) (*benchSpec, []byte, error) {
	raw, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return &s, raw, nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
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

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. It returns 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak memory: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("peak memory: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak memory: no VmHWM in /proc/self/status")
}
