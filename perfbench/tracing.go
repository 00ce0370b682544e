package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"eotora/internal/core"
	"eotora/internal/game"
	"eotora/internal/obs"
	"eotora/internal/par"
	"eotora/internal/policy"
	"eotora/internal/rng"
	"eotora/internal/trace"
)

// tracer records spans in memory for the traced run. Tracing alternates
// by slot: odd slots are traced (spans recorded, obs registry attached),
// even slots run the same instance untraced, so tracing.overhead_ratio
// compares the two under the same host conditions. A nil tracer records
// nothing. All calls come from the one driving goroutine.
type tracer struct {
	t0    time.Time
	on    bool
	slot  int
	spans []span
	stack []int
}

// span is one timed call at a layer seam. Spans of one slot share its
// index; parent indexes the enclosing span (-1 for the slot root).
type span struct {
	slot       int
	name       string
	parent     int
	start, end time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// startSlot switches tracing on for odd slots and off for even ones and
// reports whether slot t is traced.
func (tr *tracer) startSlot(t int) bool {
	tr.slot = t
	tr.on = t%2 == 1
	return tr.on
}

// stop switches tracing off for the rest of the run.
func (tr *tracer) stop() {
	if tr != nil {
		tr.on = false
	}
}

// registry returns reg while the current slot is traced, nil otherwise.
func (tr *tracer) registry(reg *obs.Registry) *obs.Registry {
	if tr.on {
		return reg
	}
	return nil
}

// begin opens a span under the innermost open one and returns its index
// (-1 when not tracing).
func (tr *tracer) begin(name string) int {
	if tr == nil || !tr.on {
		return -1
	}
	parent := -1
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	tr.spans = append(tr.spans, span{slot: tr.slot, name: name, parent: parent, start: time.Since(tr.t0)})
	i := len(tr.spans) - 1
	tr.stack = append(tr.stack, i)
	return i
}

// end closes the span begin returned.
func (tr *tracer) end(i int) {
	if i < 0 {
		return
	}
	tr.spans[i].end = time.Since(tr.t0)
	tr.stack = tr.stack[:len(tr.stack)-1]
}

// selfTimes returns every span's duration minus the time its children
// cover.
func (tr *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(tr.spans))
	for i, s := range tr.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// write stores the spans as JSON lines under dir and returns the path.
func (tr *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := tr.selfTimes()
	for i, s := range tr.spans {
		parent := ""
		if s.parent >= 0 {
			parent = tr.spans[s.parent].name
		}
		rec := struct {
			Slot    int     `json:"slot"`
			ID      int     `json:"id"`
			Parent  int     `json:"parent"`
			Name    string  `json:"name"`
			Under   string  `json:"under,omitempty"`
			StartUS float64 `json:"start_us"`
			DurUS   float64 `json:"dur_us"`
			SelfUS  float64 `json:"self_us"`
		}{s.slot, i, s.parent, s.name, parent, us(s.start), us(s.end - s.start), us(self[i])}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timedSolver is a core.P2ASolver that times each P2-A solve as a
// game.solve span. It forwards SolveFrom too, so BDMA keeps warm-starting
// rounds after the first.
type timedSolver struct {
	inner core.CGBASolver
	tr    *tracer
}

func (s timedSolver) Name() string { return s.inner.Name() }

func (s timedSolver) Solve(p *core.P2A, src *rng.Source) (game.Result, error) {
	sp := s.tr.begin("game.solve")
	defer s.tr.end(sp)
	return s.inner.Solve(p, src)
}

func (s timedSolver) SolveFrom(p *core.P2A, initial game.Profile, src *rng.Source) (game.Result, error) {
	sp := s.tr.begin("game.solve")
	defer s.tr.end(sp)
	return s.inner.SolveFrom(p, initial, src)
}

// timedPolicy times each Decide as a policy.decide span.
type timedPolicy struct {
	policy.Policy
	tr *tracer
}

func (p timedPolicy) Decide(slot int, st *trace.State) (*core.SlotResult, error) {
	sp := p.tr.begin("policy.decide")
	defer p.tr.end(sp)
	return p.Policy.Decide(slot, st)
}

// layerCounts are the obs counters the per-layer metrics divide.
type layerCounts struct {
	cgbaSolves, cgbaIters, moves, hits, misses  float64
	bdmaRounds, p2bIters, parRegions, parShards float64
}

func countsOf(reg *obs.Registry) layerCounts {
	if reg == nil {
		return layerCounts{}
	}
	s := reg.Snapshot()
	c := func(name string) float64 { return float64(s.Counters[name]) }
	h := func(name string) float64 { return s.Histograms[name].Sum }
	return layerCounts{
		cgbaSolves: c(core.MetricCGBASolves),
		cgbaIters:  h(core.MetricCGBAIterations),
		moves:      c(core.MetricEngineMoves),
		hits:       c(core.MetricCacheHits),
		misses:     c(core.MetricCacheMisses),
		bdmaRounds: c(core.MetricBDMARounds),
		p2bIters:   h(core.MetricP2BIterations),
		parRegions: c(par.MetricRegions),
		parShards:  h(par.MetricRegionShards),
	}
}

func (a layerCounts) sub(b layerCounts) layerCounts {
	return layerCounts{
		a.cgbaSolves - b.cgbaSolves, a.cgbaIters - b.cgbaIters, a.moves - b.moves,
		a.hits - b.hits, a.misses - b.misses, a.bdmaRounds - b.bdmaRounds,
		a.p2bIters - b.p2bIters, a.parRegions - b.parRegions, a.parShards - b.parShards,
	}
}

// perLayer assembles the traced run's metrics. Times come from the
// measured loop's spans. Counts come from the measured slots inside the
// quality window, so they repeat exactly for a seed. Layers a workload does
// not reach report 0.
func (r *runResult) perLayer(tr *tracer) map[string]metric {
	self := tr.selfTimes()
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for i, s := range tr.spans {
		if s.slot < r.loopStart {
			continue
		}
		durs[s.name] = append(durs[s.name], float64(s.end-s.start)/1e6)
		selfs[s.name] = append(selfs[s.name], float64(self[i])/1e6)
	}
	traced := r.warmTimes(func(s sample) bool { return s.traced })
	plain := r.warmTimes(func(s sample) bool { return !s.traced })
	var tracedMs, genBytes, slots, counted, events, eventsBad float64
	for _, s := range r.warm {
		if s.traced {
			tracedMs += s.slotMs
		}
		genBytes += s.genBytes
		eventsBad += float64(s.eventsBad)
		if s.slot <= r.w.window() {
			counted++
			events += float64(s.events)
			if s.traced {
				slots++
			}
		}
	}
	n := float64(len(r.warm))
	c := r.layers
	return map[string]metric{
		"game.solve_ms.p50":              {median(durs["game.solve"]), "ms"},
		"game.solve_share":               {sum(durs["game.solve"]) / tracedMs, "ratio"},
		"game.solves_per_slot":           {c.cgbaSolves / slots, "1/slot"},
		"game.cgba_iterations_per_solve": {ratio(c.cgbaIters, c.cgbaSolves), "1/solve"},
		"game.moves_per_slot":            {c.moves / slots, "1/slot"},
		"game.cache_hit_ratio":           {ratio(c.hits, c.hits+c.misses), "ratio"},
		"core.decide_ms.p50":             {median(durs["policy.decide"]), "ms"},
		"core.decide_ms.tail":            {quantile(durs["policy.decide"], tailPct/100), "ms"},
		"core.self_ms.p50":               {median(selfs["policy.decide"]), "ms"},
		"core.bdma_rounds_per_slot":      {c.bdmaRounds / slots, "1/slot"},
		"core.p2b_iterations_per_slot":   {c.p2bIters / slots, "1/slot"},
		"serve.ingest_ms.p50":            {median(durs["serve.ingest"]), "ms"},
		"serve.tick_self_ms.p50":         {median(selfs["serve.tick"]), "ms"},
		"serve.events_per_slot":          {events / counted, "1/slot"},
		"serve.events_failed":            {eventsBad, "count"},
		"serve.snapshot_ms":              {r.snapshotMs, "ms"},
		"serve.restore_ms":               {r.restoreMs, "ms"},
		"trace.next_ms.p50":              {median(durs["trace.next"]), "ms"},
		"trace.alloc_mb_per_slot":        {genBytes / n / 1e6, "MB"},
		"par.regions_per_slot":           {c.parRegions / slots, "1/slot"},
		"par.region_shards_per_slot":     {c.parShards / slots, "1/slot"},
		"lyapunov.backlog_final":         {r.backlogFinal, "USD"},
		"runtime.gc_cycles_per_slot":     {r.gcCycles / n, "1/slot"},
		"runtime.gc_cpu_share":           {r.gcCPUShare, "ratio"},
		"runtime.host_probe_ms":          {median(append(append([]float64(nil), r.probeStart...), r.probeEnd...)), "ms"},
		"tracing.overhead_ratio":         {median(traced)/median(plain) - 1, "ratio"},
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
