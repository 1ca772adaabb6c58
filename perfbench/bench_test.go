package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"promising/internal/litmus"
)

// run invokes the benchmark in-process and returns its exit code and
// final JSON result.
func run(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(append([]string{"-repo", "..", "-out", t.TempDir()}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, res, stderr.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	catalog := litmus.Catalog()
	schedule := func(seed int64) []byte {
		reqs, err := serviceSchedule(nil, catalog, seed, 2000)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, r := range reqs {
			if r.hit {
				b.WriteString("hit ")
			}
			b.Write(r.body)
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	a, b := schedule(7), schedule(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different generated tests or request schedules")
	}
	if bytes.Equal(a, schedule(8)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if hits := bytes.Count(a, []byte("hit ")); hits != 1800 {
		t.Fatalf("schedule has %d planned hits in 2000 requests, want 1800", hits)
	}
}

// specNames returns the metric names and units of one BENCHMARK.json
// list.
func specNames(t *testing.T, perLayer bool) map[string]string {
	t.Helper()
	spec, _, err := readBenchmarkSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	if perLayer {
		for _, m := range spec.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

func printedNames(res result) map[string]string {
	out := map[string]string{}
	for name, m := range res.Metrics {
		out[name] = m.Unit
	}
	return out
}

func TestMetricNamesMatchSpec(t *testing.T) {
	spec, _, err := readBenchmarkSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, workloadNames())
	}
	_, res, _ := run(t, "-workload", "paper-rows", "-seconds", "0")
	if got, want := printedNames(res), specNames(t, false); !maps.Equal(got, want) {
		t.Errorf("end-to-end metrics printed %v\nBENCHMARK.json lists %v", sorted(got), sorted(want))
	}
	for _, w := range []string{"paper-rows", "check-service"} {
		code, res, stderr := run(t, "-workload", w, "-seconds", "0", "-trace", "1")
		if code != 0 {
			t.Fatalf("traced %s exited %d: %s", w, code, stderr)
		}
		if got, want := printedNames(res), specNames(t, true); !maps.Equal(got, want) {
			t.Errorf("traced %s printed %v\nBENCHMARK.json lists %v", w, sorted(got), sorted(want))
		}
		if c := res.Metrics["trace.span_coverage"].Value; w == "paper-rows" && c < minSpanCoverage {
			t.Errorf("paper-rows spans cover %.3f of traced wall time", c)
		}
	}
}

func sorted(m map[string]string) []string {
	return slices.Sorted(maps.Keys(m))
}

func TestMinimalPassEveryWorkload(t *testing.T) {
	for _, w := range workloadNames() {
		code, res, stderr := run(t, "-workload", w, "-seconds", "0")
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: exit %d, correct %t, failed %d of %d\n%s", w, code, res.Correct, res.Failed, res.Attempted, stderr)
		}
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w, name, m.Value)
			}
		}
	}
}

func TestCorruptedPinFails(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	pins["paper-rows"]["SLA-1/promising"] = strings.Repeat("0", 64)
	raw, err := json.Marshal(pins)
	if err != nil {
		t.Fatal(err)
	}
	saved := embeddedPins
	embeddedPins = raw
	t.Cleanup(func() { embeddedPins = saved })
	code, res, stderr := run(t, "-workload", "paper-rows", "-seconds", "0")
	if code == 0 || res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted pin: exit %d, correct %t, failed %d; want a nonzero exit and one failure", code, res.Correct, res.Failed)
	}
	if !strings.Contains(stderr, "SLA-1/promising: outcome set") {
		t.Errorf("failure does not name the cell: %s", stderr)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10, 10.1, 9.9}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	for i, p := range parent {
		faster[i], slower[i] = p*0.8, p*1.3
	}
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"improved", faster, "improved"},
		{"regressed", slower, "regressed"},
		{"same", parent, "no worse"},
	} {
		if _, got := judge(false, 0.1, parent, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if _, got := judge(false, 0.1, noisy, noisy); got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %s, want unresolved", got)
	}
}

func TestCompareRefusesMismatchedRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...record) string {
		var b bytes.Buffer
		for _, r := range recs {
			line, _ := json.Marshal(r)
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"wall_s": {Value: 1, Unit: "s"}}}
	rec := func(version string, seed int64) record {
		return record{Version: version, Workload: "paper-rows", Seed: seed, Seconds: 10, Result: res}
	}
	var out bytes.Buffer
	base := write("a", rec("v1", 1), rec("v1", 2))
	if err := compareFiles(&out, "..", base, write("b", rec("v1", 1), rec("v1", 3))); err == nil {
		t.Error("compared runs made with different seeds")
	}
	if err := compareFiles(&out, "..", base, write("c", rec("v2", 1), rec("v2", 2))); err == nil {
		t.Error("compared runs of different benchmark versions")
	}
	if err := compareFiles(&out, "..", base, write("d", rec("v1", 2), rec("v1", 1))); err != nil {
		t.Errorf("same seeds and version: %v", err)
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             runtime.newobject
             promising/internal/core.(*Interner).Intern
             promising/internal/explore.PromiseFirst
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   encoding/json.(*decodeState).object
             main.(*service).do
-----------+-------------------------------------------------------
`)
	byLayer, total, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"core.intern": 20 * time.Millisecond, "gc": 10 * time.Millisecond, "json": 10 * time.Millisecond}
	if total != 40*time.Millisecond || !maps.Equal(byLayer, want) {
		t.Fatalf("got %v (total %v), want %v", byLayer, total, want)
	}
}

func TestUnionWithin(t *testing.T) {
	iv := [][2]time.Duration{{0, 10}, {5, 15}, {20, 30}, {28, 40}}
	if got := unionWithin(iv, 2, 35); got != 13+15 {
		t.Fatalf("union = %v, want 28", got)
	}
}
