package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// A workload builds its inputs in setup and then runs passes over them.
type workload struct {
	name string
	// spanChecked reports whether the traced run must pass the
	// span-coverage check on this workload.
	spanChecked bool
	setup       func(e *env, tr *tracer) (*bench, error)
}

// allWorkloads lists the benchmark's workloads in the order -workload all
// runs them.
var allWorkloads = []workload{
	{name: "paper-rows", spanChecked: true, setup: setupPaperRows},
	{name: "symmetric", spanChecked: true, setup: setupSymmetric},
	{name: "litmus-sweep", spanChecked: true, setup: setupSweep},
	{name: "check-service", setup: setupService},
}

func workloadNames() []string {
	out := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		out[i] = w.name
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a workload's setup reads: the run's settings and the pins.
type env struct {
	cfg  config
	pins map[string]map[string]string // workload -> cell -> outcome fingerprint
}

// bench is a set-up workload.
type bench struct {
	// pass runs one pass over the workload's fixed inputs and returns its
	// operations; it returns none once the inputs are used up. tr is nil
	// in untraced passes.
	pass func(tr *tracer) []op
	// layers adds the workload's own per-layer metrics to a traced run's
	// (nil when it has none).
	layers func(ops []op) []measure
	// stop releases what setup started.
	stop func()
}

// op is one completed operation: a paper cell, a sweep test under every
// backend, or one service request.
type op struct {
	latency time.Duration
	// err is why the operation failed; nil when it passed every check.
	err error
	// The service's requests also carry what the server reported.
	hit       bool  // planned as a verdict-cache hit
	cached    bool  // the server answered from its verdict cache
	elapsedUS int64 // the server's reported exploration time
	non2xx    bool
}

// runWorkload sets the workload up several times, runs passes for
// cfg.seconds, and returns the end-to-end (untraced) or per-layer (traced)
// result.
func runWorkload(cfg config, w workload, stdout, stderr io.Writer) (*result, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, pins: pins}
	// Every workload runs with GOMAXPROCS=1, so its figures do not depend
	// on what else the host runs on its other CPUs. The cell workloads run
	// one cell at a time on a sequential engine, so a second P would only
	// run the collector's background work; with one P that work lands on
	// the cells' wall time.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set up minSetups times and keep the last: setup_s is the median.
	// Cheap set-ups repeat until setupBudget is spent (at most maxSetups
	// times), so their median rests on more samples.
	var setups []float64
	var b *bench
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		if b != nil {
			b.stop()
		}
		tr.resetSetup()
		start := time.Now()
		b, err = w.setup(e, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer b.stop()
	tr.endSetup()

	if cfg.trace {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
	}
	profPath := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, cfg.seed))
	if cfg.trace {
		f, err := os.Create(profPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		defer f.Close()
	}

	// Passes until the time is up. A traced run alternates untraced and
	// traced passes (at least one of each) so the untraced ones measure
	// the tracing overhead.
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var ops []op
	var walls, tracedWalls, rates, p50s, p99s []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; ; i++ {
		var ptr *tracer
		if tr != nil && i%2 == 1 {
			ptr = tr
		}
		passID := ptr.beginPass()
		start := time.Now()
		got := b.pass(ptr)
		wall := time.Since(start).Seconds()
		ptr.end(passID)
		if len(got) == 0 {
			break // inputs used up
		}
		ops = append(ops, got...)
		if ptr != nil {
			tracedWalls = append(tracedWalls, wall)
		} else {
			walls = append(walls, wall)
			rates = append(rates, float64(len(got))/wall)
			lat := latencies(got)
			p50s, p99s = append(p50s, quantile(lat, 0.50)), append(p99s, quantile(lat, 0.99))
		}
		minPasses := 1
		if tr != nil {
			minPasses = 2
		}
		if i+1 >= minPasses && (cfg.seconds == 0 || !time.Now().Before(deadline)) {
			break
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if cfg.trace {
		pprof.StopCPUProfile()
	}
	if len(walls) == 0 || cfg.trace && len(tracedWalls) == 0 {
		return nil, fmt.Errorf("%s: the inputs ran out before the first pass", w.name)
	}

	failed := 0
	for _, o := range ops {
		if o.err != nil {
			if failed < 10 {
				fmt.Fprintf(stderr, "perfbench: %s: FAIL %v\n", w.name, o.err)
			}
			failed++
		}
	}
	res := &result{Correct: failed == 0, Attempted: len(ops), Failed: failed}
	endToEnd := []measure{
		{"setup_s", "s", median(setups), len(setups)},
		{"wall_s", "s", median(walls), len(walls)},
		{"ops_per_s", "1/s", median(rates), len(rates)},
		{"latency_ms_p50", "ms", median(p50s), len(ops)},
		{"latency_ms_p99", "ms", median(p99s), len(ops)},
	}
	printTable(stdout, fmt.Sprintf("%s seed=%d end-to-end (failed %d of %d operations)", w.name, cfg.seed, failed, len(ops)), endToEnd)
	if !cfg.trace {
		res.Metrics = toMetrics(endToEnd)
		return res, nil
	}

	// Traced run: per-layer metrics from the spans, the counters the calls
	// returned, the CPU profile and the runtime.
	cpu, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	layers := tr.layerMetrics(len(tracedWalls))
	layers = append(layers, cpu...)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	layers = append(layers, runtimeMetrics(&before, &after, len(walls)+len(tracedWalls))...)
	layers = append(layers, measure{"runtime.peak_rss_mb", "MB", rss, 1})
	if b.layers != nil {
		layers = append(layers, b.layers(ops)...)
	} else {
		layers = append(layers, serviceLayers(nil, 0)...)
	}
	coverage := tr.coverage()
	layers = append(layers,
		measure{"trace.overhead_ratio", "ratio", median(tracedWalls) / median(walls), len(tracedWalls)},
		measure{"trace.span_coverage", "ratio", coverage, len(tracedWalls)},
	)
	printTable(stdout, fmt.Sprintf("%s seed=%d per-layer (traced passes %d, untraced %d)", w.name, cfg.seed, len(tracedWalls), len(walls)), layers)
	if w.spanChecked && coverage < minSpanCoverage {
		fmt.Fprintf(stderr, "perfbench: %s: layer spans cover %.1f%% of traced wall time, below %.0f%%\n",
			w.name, 100*coverage, 100*minSpanCoverage)
		res.Correct = false
	}
	spanPath := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, cfg.seed))
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# spans: %s\n# cpu profile: %s\n", spanPath, profPath)
	res.Metrics = toMetrics(layers)
	return res, nil
}

// Set-up repetitions: at least minSetups, then more while less than
// setupBudget has been spent, up to maxSetups in all.
const (
	minSetups   = 3
	setupBudget = time.Second
	maxSetups   = 50
)

// latencies returns the operations' latencies in ms.
func latencies(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = ms(o.latency)
	}
	return out
}

// minSpanCoverage is the share of a traced pass's wall time the named
// layer spans must cover on the cell workloads.
const minSpanCoverage = 0.90

// runtimeMetrics reports the Go runtime's GC activity over the pass phase:
// cycles per pass and the 99th-percentile stop-the-world pause.
func runtimeMetrics(before, after *runtime.MemStats, passes int) []measure {
	n := after.NumGC - before.NumGC
	var pauses []float64
	for i := uint32(0); i < n && i < uint32(len(after.PauseNs)); i++ {
		idx := (after.NumGC - 1 - i) % uint32(len(after.PauseNs))
		pauses = append(pauses, float64(after.PauseNs[idx])/1e6)
	}
	return []measure{
		{"runtime.gc_cycles", "count", float64(n) / float64(passes), passes},
		{"runtime.gc_pause_ms_p99", "ms", quantile(pauses, 0.99), len(pauses)},
	}
}
