package main

import (
	"bufio"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
	"sort"
)

// record is one run's result with what makes two runs comparable: the
// benchmark version, workload, seed and run length.
type record struct {
	Version  string `json:"version"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

//go:embed *.go pins.json run.sh
var sources embed.FS

// benchVersion hashes the benchmark's own sources and BENCHMARK.json, so
// runs of different benchmark code or metric definitions never compare.
func benchVersion(repo string) (string, error) {
	_, spec, err := readBenchmarkSpec(repo)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(spec)
	err = fs.WalkDir(sources, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := sources.ReadFile(path)
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(raw))
		h.Write(raw)
		return err
	})
	return hex.EncodeToString(h.Sum(nil))[:16], err
}

// appendRecord appends the run's record to cfg.record.
func appendRecord(cfg config, res *result) error {
	v, err := benchVersion(cfg.repo)
	if err != nil {
		return err
	}
	line, err := json.Marshal(record{Version: v, Workload: cfg.workload, Seed: cfg.seed,
		Seconds: cfg.seconds, Trace: cfg.trace, Result: *res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(cfg.record, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append record: %w", err)
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// compareFiles compares the untraced runs of two record files, parent and
// change, workload by workload and metric by metric, pairing runs by seed.
func compareFiles(w io.Writer, repo, parentPath, changePath string) error {
	spec, _, err := readBenchmarkSpec(repo)
	if err != nil {
		return err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	if len(parent) == 0 || len(change) == 0 {
		return fmt.Errorf("compare: no untraced runs in %s or %s", parentPath, changePath)
	}
	byWorkload := func(rs []record) map[string]map[int64]record {
		out := map[string]map[int64]record{}
		for _, r := range rs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[int64]record{}
			}
			out[r.Workload][r.Seed] = r
		}
		return out
	}
	for _, r := range append(slices.Clone(parent), change...) {
		if r.Version != parent[0].Version {
			return fmt.Errorf("compare: runs of different benchmark versions (%s and %s)", parent[0].Version, r.Version)
		}
		if r.Seconds != parent[0].Seconds {
			return fmt.Errorf("compare: runs of different lengths (%ds and %ds)", parent[0].Seconds, r.Seconds)
		}
	}
	p, c := byWorkload(parent), byWorkload(change)
	var names []string
	for name := range p {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != len(c) {
		return fmt.Errorf("compare: the two files cover different workloads")
	}
	for _, name := range names {
		seeds := sortedSeeds(p[name])
		if !slices.Equal(seeds, sortedSeeds(c[name])) {
			return fmt.Errorf("compare: %s: the two files ran different seeds (%v and %v)", name, seeds, sortedSeeds(c[name]))
		}
		fmt.Fprintf(w, "# %s (%d run pairs)\n", name, len(seeds))
		fmt.Fprintf(w, "%-16s %-6s %28s %28s %6s  %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
		for _, m := range spec.EndToEnd {
			var pv, cv []float64
			for _, s := range seeds {
				pv = append(pv, p[name][s].Result.Metrics[m.Name].Value)
				cv = append(cv, c[name][s].Result.Metrics[m.Name].Value)
			}
			wins, verdict := judge(m.Better == "higher", m.Bound, pv, cv)
			fmt.Fprintf(w, "%-16s %-6s %28s %28s %6.2f  %s\n", m.Name, m.Unit, quartiles(pv), quartiles(cv), wins, verdict)
		}
	}
	return nil
}

func sortedSeeds(m map[int64]record) []int64 {
	out := make([]int64, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}

// judge compares paired parent and change values of one metric. It
// returns the share of pairs the change wins (ties count for neither) and
// a verdict:
//
//   - improved: the change wins at least nine pairs in ten and the medians
//     differ by more than the parent's quartile spread;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound (a share of the parent's median);
//   - unresolved: the parent's own quartile spread is wider than the
//     bound, unless every change run beats every parent run;
//   - no worse: otherwise.
func judge(higherBetter bool, bound float64, parent, change []float64) (float64, string) {
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	share := float64(wins) / float64(len(parent))
	pm, cm := median(parent), median(change)
	spread := quantile(parent, 0.75) - quantile(parent, 0.25)
	worse := (cm - pm) / pm
	if higherBetter {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case share >= 0.9 && better(cm, pm) && math.Abs(cm-pm) > spread:
		return share, "improved"
	case worse > bound:
		return share, "regressed"
	case spread/pm > bound && !allBetter:
		return share, "unresolved"
	default:
		return share, "no worse"
	}
}
