// Command perfbench is the repository benchmark: it drives the EOTORA
// controller in-process through the entry points the shipped commands use
// and prints the end-to-end slot metrics (or, with -trace 1, the per-layer
// metrics) of one workload as a JSON object on the last line of stdout.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload paper-300 --seed 1 --seconds 30 --trace 0
//
// Every run checks its outputs: each published decision is re-validated
// against its slot state, decision digests must repeat across in-process
// repeats of the same seed and between traced and untraced instances, and
// serve runs must accept and apply every event and survive a
// snapshot/restore drill bit-identically. A failed check lowers ok_share,
// reports "correct": false, and exits with status 1. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"eotora/internal/par"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "state-stream and controller seed (the topology is fixed per workload)")
		seconds  = fs.Float64("seconds", 30, "wall time of the measured warm loop (it also runs until the workload's minimum slot count)")
		traceOn  = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		spansDir = fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, ok := workloads()[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *traceOn != 0 && *traceOn != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", *traceOn)
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}

	d := &runner{w: w, seed: *seed, seconds: *seconds, traced: *traceOn == 1}
	res, err := d.run()
	if err != nil {
		return 1, err
	}

	var metrics map[string]metric
	if d.traced {
		metrics = res.perLayer(d.tr)
		path, err := d.tr.write(*spansDir, w.name, *seed)
		if err != nil {
			return 1, err
		}
		fmt.Printf("spans: %s (%d spans)\n", path, len(d.tr.spans))
	} else {
		metrics = res.endToEnd()
	}
	res.printSummary(metrics)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1, fmt.Errorf("%s: %d of %d slots failed their checks (first: %v)",
			w.name, res.failed, res.attempted, res.firstErr)
	}
	return 0, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run measured and checked.
type runResult struct {
	w workload

	attempted, failed int
	firstErr          error

	setup, cold []float64 // seconds, milliseconds: one per in-process cold start
	warm        []sample  // the measured warm loop
	loopStart   int       // first slot index of the measured loop

	// Quality over the fixed window of slots 1..w.window(): identical for
	// every run of a seed, whatever the host speed.
	latencyPerDevice, costSum float64
	budget                    float64
	backlogFinal              float64
	windowDigest              uint64

	peakRSSMB            float64
	probeStart, probeEnd []float64 // host-probe milliseconds

	gcCycles, gcCPUShare float64     // over the measured loop
	layers               layerCounts // over the measured slots inside the quality window
	snapshotMs           float64
	restoreMs            float64
}

// sample is one decided slot.
type sample struct {
	slot       int
	traced     bool
	slotMs     float64 // the slot_ms region (Decide, or events POST → tick response)
	loopMs     float64 // the slots_per_s region (adds the simulator's trace generation)
	allocBytes float64 // heap bytes allocated inside the slot_ms region
	genBytes   float64 // heap bytes allocated by trace generation
	events     int     // serve: events posted for the slot
	eventsBad  int     // serve: events not accepted or not applied
	latency    float64 // T_t / active devices (s)
	cost       float64 // C_t ($)
	backlog    float64 // Q(t+1)
	digest     uint64
	err        error // a failed output check (the slot still counts as attempted)
}

// check records one slot's outcome: err == nil counts it as ok.
func (r *runResult) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

func (r *runResult) correct() bool { return r.failed == 0 && r.attempted > 0 }

// warmTimes returns the warm loop's slot_ms values, optionally filtered
// to traced or untraced slots.
func (r *runResult) warmTimes(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range r.warm {
		if keep == nil || keep(s) {
			out = append(out, s.slotMs)
		}
	}
	return out
}

// endToEnd assembles the untraced run's metrics.
func (r *runResult) endToEnd() map[string]metric {
	slot := r.warmTimes(nil)
	var loopMs, alloc float64
	for _, s := range r.warm {
		loopMs += s.loopMs
		alloc += s.allocBytes
	}
	n := float64(len(r.warm))
	window := float64(r.w.window())
	return map[string]metric{
		"setup_s":           {median(r.setup), "s"},
		"cold_slot_ms":      {median(r.cold), "ms"},
		"slot_ms.p50":       {median(slot), "ms"},
		"slot_ms.tail":      {quantile(slot, tailPct/100), "ms"},
		"slots_per_s":       {n / (loopMs / 1e3), "1/s"},
		"alloc_mb_per_slot": {alloc / n / 1e6, "MB"},
		"peak_rss_mb":       {r.peakRSSMB, "MB"},
		"avg_latency_s":     {r.latencyPerDevice / window, "s"},
		"budget_ratio":      {r.costSum / window / r.budget, "ratio"},
		"ok_share":          {float64(r.attempted-r.failed) / float64(r.attempted), "ratio"},
	}
}

// printSummary writes the human-readable report ahead of the JSON line.
func (r *runResult) printSummary(metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %d warm slots measured from slot %d, %d attempted, %d failed\n",
		r.w.name, len(r.warm), r.loopStart, r.attempted, r.failed)
	fmt.Printf("slot_ms.tail is p%g over %d samples (at least %d beyond it)\n",
		tailPct, len(r.warm), int(math.Floor(float64(len(r.warm))*(1-tailPct/100))))
	slot := r.warmTimes(nil)
	fmt.Printf("slot_ms: p50 %.4g, p90 %.4g, p95 %.4g, p99 %.4g\n",
		median(slot), quantile(slot, 0.9), quantile(slot, 0.95), quantile(slot, 0.99))
	fmt.Printf("decision digest over slots 1..%d: %016x\n", r.w.window(), r.windowDigest)
	fmt.Printf("host probe: start %.3f ms, end %.3f ms\n", median(r.probeStart), median(r.probeEnd))
	for _, k := range names {
		fmt.Printf("  %-32s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
}

// runner runs one workload: cold starts, the reference prefix, warm-up,
// the measured loop, and the workload's post-run drill.
type runner struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	tr      *tracer
	pool    *par.Pool
	spare   int // spare cold starts run so far
}

// coldStart builds the workload from nothing under seed and decides slot
// 1, timing both (setup_s and cold_slot_ms).
func (d *runner) coldStart(res *runResult, seed int64, tr *tracer) (instance, sample, error) {
	runtime.GC()
	start := time.Now()
	in, err := d.w.build(seed, tr, d.pool)
	if err != nil {
		return nil, sample{}, err
	}
	res.setup = append(res.setup, time.Since(start).Seconds())
	s, err := in.step(1)
	if err != nil {
		return nil, sample{}, err
	}
	res.cold = append(res.cold, s.slotMs)
	return in, s, nil
}

// spareColdStarts runs n cold starts whose state streams come from seeds
// derived from the run seed, so the cold medians span many inputs instead
// of repeating one. The instances are dropped right away.
func (d *runner) spareColdStarts(res *runResult, n int) error {
	for ; n > 0; n-- {
		d.spare++
		_, s, err := d.coldStart(res, d.seed+int64(d.spare)<<32, nil)
		if err != nil {
			return err
		}
		res.check(s.err)
	}
	return nil
}

func (d *runner) run() (*runResult, error) {
	res := &runResult{w: d.w}
	res.probeStart = hostProbe()
	d.pool = par.New(0)
	defer d.pool.Close()

	// The first cold start continues through the reference prefix: its
	// per-slot digests are what every later instance of the seed, traced
	// or not, must reproduce.
	in, s, err := d.coldStart(res, d.seed, nil)
	if err != nil {
		return nil, err
	}
	ref := []uint64{s.digest}
	res.check(s.err)
	for t := 2; t <= d.w.refSlots; t++ {
		s, err := in.step(t)
		if err != nil {
			return nil, err
		}
		ref = append(ref, s.digest)
		res.check(s.err)
	}
	in = nil

	// The measured instance is a second cold start under the run seed,
	// traced in a traced run. An untraced run spreads its spare cold starts
	// over coldBatches points of the measured loop, the last one after it,
	// so a short burst of host load cannot set the cold medians.
	spare, batches := d.w.coldStarts-2, d.w.coldBatches
	if d.traced {
		d.tr = newTracer()
		spare = 0
	}
	if in, s, err = d.coldStart(res, d.seed, d.tr); err != nil {
		return nil, err
	}
	res.check(errors.Join(s.err, digestErr(s, ref)))

	window := d.w.window()
	var dig digester
	res.quality(s, &dig)
	var (
		loopStart    time.Time
		gc0, gcSpare gcStats
		counts0      layerCounts
		batch        = 1
	)
	for t := 2; ; t++ {
		if t == d.w.warmup+2 {
			res.loopStart = t
			runtime.GC()
			gc0 = readGC()
			counts0 = in.counts()
			loopStart = time.Now()
		}
		elapsed := time.Since(loopStart).Seconds()
		if res.loopStart > 0 && batch < batches && elapsed >= d.seconds*float64(batch)/float64(batches) {
			g := readGC()
			if err := d.spareColdStarts(res, spare*batch/batches-spare*(batch-1)/batches); err != nil {
				return nil, err
			}
			gcSpare = gcSpare.add(readGC().sub(g))
			batch++
		}
		if res.loopStart > 0 && t > window && len(res.warm) >= d.w.minSlots && elapsed >= d.seconds {
			break
		}
		s, err := in.step(t)
		if err != nil {
			return nil, err
		}
		res.check(errors.Join(s.err, digestErr(s, ref)))
		if t <= window {
			res.quality(s, &dig)
		}
		if res.loopStart > 0 {
			res.warm = append(res.warm, s)
		}
		if t == window {
			res.layers = in.counts().sub(counts0)
		}
	}
	gc := readGC().sub(gc0).sub(gcSpare)
	res.gcCycles = gc.cycles
	if gc.totalCPU > 0 {
		res.gcCPUShare = gc.gcCPU / gc.totalCPU
	}
	res.windowDigest = dig.sum()
	res.budget = in.budget()

	if err := in.drill(d, res); err != nil {
		return nil, err
	}
	in = nil
	if err := d.spareColdStarts(res, spare-spare*(batch-1)/batches); err != nil {
		return nil, err
	}
	res.peakRSSMB = peakRSSMB()
	res.probeEnd = hostProbe()
	return res, nil
}

// quality folds one window slot into the quality metrics and the digest.
func (r *runResult) quality(s sample, dig *digester) {
	r.latencyPerDevice += s.latency
	r.costSum += s.cost
	r.backlogFinal = s.backlog
	dig.add(s.digest)
}

// digestErr checks a slot's decision digest against the reference prefix.
func digestErr(s sample, ref []uint64) error {
	if s.slot > len(ref) || ref[s.slot-1] == s.digest {
		return nil
	}
	return fmt.Errorf("slot %d: decision digest %016x differs from the reference instance's %016x",
		s.slot, s.digest, ref[s.slot-1])
}
