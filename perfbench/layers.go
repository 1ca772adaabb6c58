package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"promising/internal/backends"
)

// acc sums a quantity over set-up spans and over traced-pass spans.
type acc struct{ setup, pass float64 }

func (a *acc) add(s span, v float64) {
	if s.Setup {
		a.setup += v
	} else {
		a.pass += v
	}
}

// per returns the set-up sum plus the pass sum averaged over passes.
func (a acc) per(passes int) float64 { return a.setup + a.pass/float64(passes) }

// layerMetrics turns the recorded spans into per-layer metrics: set-up
// spans count once and pass spans are averaged over the traced passes, so
// each value is "the set-up plus one pass". Times are in ms.
func (t *tracer) layerMetrics(passes int) []measure {
	type backendSum struct {
		busy, states, deadEnds, interned, allocBytes, allocs acc
		calls                                                int
	}
	perBackend := map[string]*backendSum{}
	for _, b := range backends.Names() {
		perBackend[b] = &backendSum{}
	}
	var build, imp, skipped, gen, compile, compiles, verdict acc
	var symClasses, symHits, pruned, certHits, certMisses, certEntries acc
	for _, s := range t.snapshot() {
		d := ms(s.End - s.Start)
		switch s.Name {
		case "workloads.build":
			build.add(s, d)
		case "litmus.import":
			imp.add(s, d)
			skipped.add(s, float64(s.Skipped))
		case "litmus.generate":
			gen.add(s, d)
		case "lang.compile":
			compile.add(s, d)
			compiles.add(s, 1)
		case "litmus.verdict":
			verdict.add(s, d)
		}
		if s.Backend == "" {
			continue
		}
		b := perBackend[s.Backend]
		b.calls++
		b.busy.add(s, d)
		b.states.add(s, float64(s.States))
		b.deadEnds.add(s, float64(s.DeadEnds))
		b.allocBytes.add(s, float64(s.AllocBytes))
		b.allocs.add(s, float64(s.Allocs))
		if st := s.Stats; st != nil {
			b.interned.add(s, float64(st.Interned))
			symClasses.add(s, float64(st.SymmetryClasses))
			symHits.add(s, float64(st.SymmetryHits))
			pruned.add(s, float64(st.PrunedStates))
			certHits.add(s, float64(st.CertHits))
			certMisses.add(s, float64(st.CertMisses))
			certEntries.add(s, float64(st.CertEntries))
		}
	}
	n := passes
	out := []measure{
		{"workloads.build_ms", "ms", build.per(n), 1},
		{"litmus.import_ms", "ms", imp.per(n), passes},
		{"litmus.import_skipped", "count", skipped.per(n), passes},
		{"litmus.generate_ms", "ms", gen.per(n), 1},
		{"lang.compile_ms", "ms", compile.per(n), passes},
		{"lang.compile_calls", "count", compiles.per(n), passes},
		{"litmus.verdict_ms", "ms", verdict.per(n), passes},
	}
	for _, name := range backends.Names() {
		b := perBackend[name]
		states := b.states.per(n)
		out = append(out,
			measure{"explore." + name + ".busy_ms", "ms", b.busy.per(n), b.calls},
			measure{"explore." + name + ".states", "count", states, b.calls},
			measure{"explore." + name + ".states_per_s", "1/s", ratio(1000*states, b.busy.per(n)), b.calls},
			measure{"explore." + name + ".alloc_bytes_per_state", "B", ratio(b.allocBytes.per(n), states), b.calls},
			measure{"explore." + name + ".allocs_per_state", "count", ratio(b.allocs.per(n), states), b.calls},
			measure{"explore." + name + ".interned", "count", b.interned.per(n), b.calls},
			measure{"explore." + name + ".dead_ends", "count", b.deadEnds.per(n), b.calls},
		)
	}
	hits, misses := certHits.per(n), certMisses.per(n)
	out = append(out,
		measure{"explore.symmetry_classes", "count", symClasses.per(n), passes},
		measure{"explore.symmetry_hits", "count", symHits.per(n), passes},
		measure{"explore.pruned_states", "count", pruned.per(n), passes},
		measure{"core.cert_hits", "count", hits, passes},
		measure{"core.cert_misses", "count", misses, passes},
		measure{"core.cert_hit_ratio", "ratio", ratio(hits, hits+misses), passes},
		measure{"core.cert_entries", "count", certEntries.per(n), passes},
	)
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuLayers maps a profile frame's function name, by prefix, to the layer
// whose CPU it is. The first matching entry wins.
var cpuLayers = []struct{ prefix, layer string }{
	{"promising/internal/core.(*CertCache)", "core.certify"},
	{"promising/internal/core.(*certifier)", "core.certify"},
	{"promising/internal/core.(*certMemo)", "core.certify"},
	{"promising/internal/core.certKey", "core.certify"},
	{"promising/internal/core.Certif", "core.certify"},
	{"promising/internal/core.FindAndCertify", "core.certify"},
	{"promising/internal/core.promisesDischarged", "core.certify"},
	{"promising/internal/core.(*Interner)", "core.intern"},
	{"promising/internal/core.Encode", "core.encode"},
	{"promising/internal/core.Hash64", "core.encode"},
	{"promising/internal/core.append", "core.encode"},
	{"promising/internal/core.GetEncBuf", "core.encode"},
	{"promising/internal/core.PutEncBuf", "core.encode"},
	{"promising/internal/core.(*TState).cohEnc", "core.encode"},
	{"promising/internal/core.(*TState).fwdbEnc", "core.encode"},
	{"promising/internal/core.(*TState).localEnc", "core.encode"},
	{"promising/internal/core.", "core.step"},
	{"promising/internal/explore.(*Symmetry)", "explore.canon"},
	{"promising/internal/explore.", "explore.engine"},
	{"promising/internal/flat.", "flat"},
	{"promising/internal/axiomatic.", "axiomatic"},
	{"promising/internal/lang.", "lang"},
	{"promising/internal/litmus.", "litmus"},
	{"promising/internal/workloads.", "litmus"},
	{"promising/internal/server.", "server"},
	{"promising/internal/obs.", "server"},
	{"promising/internal/backends.", "server"},
	{"promising/internal/cache.", "cache"},
	{"encoding/json.", "json"},
	{"net/http.", "net"},
	{"net.", "net"},
	{"internal/poll.", "net"},
	// The benchmark's own code ends the walk: its CPU is "other".
	{"main.", "other"},
}

// gcFrames mark a sample as garbage-collector work wherever they appear in
// its stack (background marking, assists, sweeping, scavenging).
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.markroot", "runtime.gcDrain", "runtime.sweepone", "runtime.deductSweepCredit"}

// cpuLayerNames are the cpu.* metrics, in print order.
var cpuLayerNames = []string{"core.step", "core.certify", "core.encode", "core.intern", "explore.canon",
	"explore.engine", "flat", "axiomatic", "lang", "litmus", "server", "cache", "json", "net", "gc", "other"}

// layerOfStack attributes one sampled stack (leaf first) to a layer: GC
// if any frame is collector work, else the layer of the innermost frame
// the table names (runtime and library frames without an entry are
// charged to their caller), else other.
func layerOfStack(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		for _, l := range cpuLayers {
			if strings.HasPrefix(f, l.prefix) {
				return l.layer
			}
		}
	}
	return "other"
}

// cpuShares reads the traced run's CPU profile with the toolchain's
// `go tool pprof -traces` and returns each layer's share of the sampled
// CPU time, in percent.
func cpuShares(profile string) ([]measure, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	traces, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	byLayer, total, err := parseTraces(traces)
	if err != nil {
		return nil, err
	}
	out := make([]measure, 0, len(cpuLayerNames))
	for _, l := range cpuLayerNames {
		out = append(out, measure{"cpu." + l, "%", 100 * ratio(float64(byLayer[l]), float64(total)), int(total / (10 * time.Millisecond))})
	}
	return out, nil
}

// parseTraces sums the sample time of `pprof -traces` output by layer.
// Each stack is a block between separator lines: the first line carries
// the sample time and the leaf frame, later lines one caller each.
func parseTraces(out []byte) (map[string]time.Duration, time.Duration, error) {
	byLayer := map[string]time.Duration{}
	var total, cur time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			byLayer[layerOfStack(frames)] += cur
			total += cur
		}
		frames, cur = frames[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "-----"):
			flush()
		case len(frames) == 0 && strings.HasPrefix(line, " ") && strings.TrimSpace(line) != "":
			fields := strings.Fields(line)
			if len(fields) < 2 {
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, 0, fmt.Errorf("pprof traces: sample %q: %w", line, err)
			}
			cur = d
			frames = append(frames, fields[1])
		case len(frames) > 0 && strings.TrimSpace(line) != "":
			frames = append(frames, strings.Fields(line)[0])
		}
	}
	flush()
	return byLayer, total, sc.Err()
}
