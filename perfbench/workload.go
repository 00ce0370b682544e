package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"eotora/internal/core"
	"eotora/internal/experiments"
	"eotora/internal/obs"
	"eotora/internal/par"
	"eotora/internal/policy"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

// The controller settings every workload shares: the paper's V and the
// CLI's default budget position.
const (
	penaltyV       = 100
	budgetFraction = 0.5
)

// topologySeed fixes each workload's network and energy models. The run
// seed drives only the state stream (and churn and the controller's
// per-slot randomness), so runs under different seeds measure the same
// system on different inputs.
const topologySeed = 1

// workload is one benchmark input set and how to build it.
type workload struct {
	name string
	// coldStarts is the number of in-process cold starts; setup_s and
	// cold_slot_ms are their medians.
	coldStarts int
	// coldBatches is the number of points, spread over the measured loop
	// with the last after it, at which the spare cold starts run. A
	// workload whose instances are large runs them all after the loop,
	// once the measured instance is dropped.
	coldBatches int
	// refSlots is the reference prefix: the first cold start decides slots
	// 1..refSlots, and every later instance of the seed must reproduce its
	// decision digests.
	refSlots int
	// warmup is the number of slots after slot 1 decided before the
	// measured loop starts.
	warmup int
	// minSlots is the least number of measured slots. It fixes the quality
	// window, so the quality metrics are the same in every run of a seed.
	minSlots int
	// build constructs an instance ready to decide slot 1 (tr == nil: the
	// untraced path the shipped commands take).
	build func(seed int64, tr *tracer, pool *par.Pool) (instance, error)
}

// tailPct is the slot_ms.tail percentile. It leaves at least 10 samples
// beyond it at every workload's minSlots. Higher percentiles follow host CPU
// steal: in a run where the host is busy, p50 rises by a quarter but p90
// doubles, so p90 and above are not steady from run to run.
const tailPct float64 = 75

// window is the number of leading slots the quality metrics and the
// decision digest cover.
func (w workload) window() int { return 1 + w.warmup + w.minSlots }

// instance is one built workload: a system that decides slots.
type instance interface {
	// step produces slot t's input and decides it. An error means the
	// instance cannot continue; a failed output check is sample.err.
	step(t int) (sample, error)
	// counts reads the layer counters (zero when untraced).
	counts() layerCounts
	// budget is the time-average energy budget C̄ in dollars per slot.
	budget() float64
	// drill runs the workload's post-run checks outside the timed region.
	drill(d *runner, res *runResult) error
}

func workloads() map[string]workload {
	return map[string]workload{
		"paper-300": {
			name: "paper-300", coldStarts: 51, coldBatches: 5, refSlots: 20, warmup: 50, minSlots: 500,
			build: simBuild(topology.DefaultSpec(300), ctrlConfig{rounds: 5, lambda: 0}),
		},
		"metro-100k": {
			name: "metro-100k", coldStarts: 5, coldBatches: 1, refSlots: 3, warmup: 2, minSlots: 48,
			build: simBuild(topology.MetroSpec(100000), ctrlConfig{rounds: 2, lambda: 0.05, shards: core.ShardsAuto}),
		},
		"serve-1k-churn": {
			name: "serve-1k-churn", coldStarts: 21, coldBatches: 5, refSlots: 20, warmup: 50, minSlots: 500,
			build: serveBuild(topology.MetroSpec(1000), ctrlConfig{rounds: 2, lambda: 0.05, shards: core.ShardsAuto}),
		},
	}
}

func workloadNames() []string {
	var names []string
	for k := range workloads() {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ctrlConfig is a workload's BDMA controller setting.
type ctrlConfig struct {
	rounds int
	lambda float64
	shards int
}

// newScenario generates the workload's fixed system.
func newScenario(spec topology.Spec) (*experiments.Scenario, error) {
	return experiments.NewScenario(experiments.ScenarioOptions{
		Devices:        spec.Devices,
		Spec:           &spec,
		BudgetFraction: budgetFraction,
	}, topologySeed)
}

// newPolicy builds the BDMA controller. Untraced, it goes through
// policy.New like the shipped commands; traced, the same controller is
// built around a timed CGBA solver and wrapped in a timed policy. Either
// way the worker pool is the CLI default (all cores).
func newPolicy(sys *core.System, cc ctrlConfig, seed int64, tr *tracer, pool *par.Pool) (policy.Policy, error) {
	if tr == nil {
		pol, err := policy.New(policy.BDMA, sys, policy.Config{
			V: penaltyV, Rounds: cc.rounds, Lambda: cc.lambda, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		if cc.shards != 0 {
			ss, ok := pol.(interface{ SetShards(int) error })
			if !ok {
				return nil, fmt.Errorf("policy %s cannot shard", pol.Name())
			}
			if err := ss.SetShards(cc.shards); err != nil {
				return nil, err
			}
		}
		pol.(policy.PoolSetter).SetPool(pool)
		return pol, nil
	}
	ctrl, err := core.NewController(sys, core.ControllerConfig{
		V: penaltyV,
		BDMA: core.BDMAConfig{
			Iterations: cc.rounds,
			Solver:     timedSolver{inner: core.CGBASolver{Lambda: cc.lambda, Shards: cc.shards}, tr: tr},
		},
		Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	ctrl.SetPool(pool)
	return timedPolicy{Policy: ctrl, tr: tr}, nil
}

// simBuild is the simulator path: experiments.NewScenario → policy.New
// → Policy.Decide on the generator's states.
func simBuild(spec topology.Spec, cc ctrlConfig) func(int64, *tracer, *par.Pool) (instance, error) {
	return func(seed int64, tr *tracer, pool *par.Pool) (instance, error) {
		sc, err := newScenario(spec)
		if err != nil {
			return nil, err
		}
		gen, err := trace.NewGenerator(sc.Net, trace.DefaultGeneratorConfig(), seed)
		if err != nil {
			return nil, err
		}
		pol, err := newPolicy(sc.Sys, cc, seed, tr, pool)
		if err != nil {
			return nil, err
		}
		s := &simInstance{sys: sc.Sys, gen: gen, pol: pol, tr: tr, next: gen.Next()}
		if tr != nil {
			s.reg = obs.New()
		}
		return s, nil
	}
}

// simInstance drives a policy directly with generated states.
type simInstance struct {
	sys  *core.System
	gen  *trace.Generator
	pol  policy.Policy
	next *trace.State // slot 1's state, generated during setup
	tr   *tracer
	reg  *obs.Registry
}

func (s *simInstance) step(t int) (sample, error) {
	out := sample{slot: t}
	if s.tr != nil {
		out.traced = s.tr.startSlot(t)
		s.pol.SetObs(s.tr.registry(s.reg))
	}
	root := s.tr.begin("slot")
	st := s.next
	s.next = nil
	genMs := 0.0
	if st == nil {
		a0 := heapAlloc()
		g0 := time.Now()
		sp := s.tr.begin("trace.next")
		st = s.gen.Next()
		s.tr.end(sp)
		genMs = msSince(g0)
		out.genBytes = heapAlloc() - a0
	}
	a0 := heapAlloc()
	d0 := time.Now()
	res, err := s.pol.Decide(t, st)
	out.slotMs = msSince(d0)
	out.allocBytes = heapAlloc() - a0
	s.tr.end(root)
	if err != nil {
		return out, fmt.Errorf("slot %d: %w", t, err)
	}
	out.loopMs = genMs + out.slotMs

	d := res.Decision
	out.err = errors.Join(
		rungErr(t, res.Slot, res.Rung),
		s.sys.Validate(d.Selection, st),
		s.sys.ValidateFrequencies(d.Freq),
	)
	out.latency = res.Latency.Value() / float64(st.ActiveDevices(len(st.TaskSizes)))
	out.cost = res.EnergyCost.Dollars()
	out.backlog = res.Backlog
	freq := make([]float64, len(d.Freq))
	for n, f := range d.Freq {
		freq[n] = float64(f)
	}
	out.digest = decisionDigest(d.Station, d.Server, freq, res.Backlog)
	return out, nil
}

func (s *simInstance) counts() layerCounts             { return countsOf(s.reg) }
func (s *simInstance) budget() float64                 { return s.sys.Budget.Dollars() }
func (s *simInstance) drill(*runner, *runResult) error { return nil }

// rungErr checks that the decision is the requested slot's, at full rung.
func rungErr(want, got, rung int) error {
	if got != want {
		return fmt.Errorf("slot %d: decision is for slot %d", want, got)
	}
	if rung != core.RungFull {
		return fmt.Errorf("slot %d: decided at rung %d, not the full solve", want, rung)
	}
	return nil
}
