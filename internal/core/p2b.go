package core

import (
	"fmt"
	"math"

	"eotora/internal/solver"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// SolveP2B solves the continuous subproblem P2-B: for fixed (x, y) it
// minimizes
//
//	V·T_t(x̄, ȳ, Ω, β) + Q(t)·Θ(Ω, p_t)
//
// over Ω with ω_n ∈ [F_n^L, F_n^U]. The paper hands this to the CVX
// convex solver; here we exploit that the objective separates per server:
//
//	min_{ω_n}  V·A_n/(cores_n·ω_n) + Q·p_t·cores_n·g_n(ω_n)·slot,
//
// with A_n = (Σ_{i→n} √(f_i/σ_{i,n}))², a strictly convex 1-D problem per
// server (decreasing hyperbola plus convex increasing energy term) solved
// by guaranteed golden-section search. The −C̄ part of Θ is constant in Ω
// and therefore dropped inside the minimization.
func (s *System) SolveP2B(sel Selection, st *trace.State, v, q float64) (Frequencies, error) {
	if q < 0 || math.IsNaN(q) {
		return nil, fmt.Errorf("core: P2-B needs Q ≥ 0, got %v", q)
	}
	return s.solveP2B(sel, st, v, func(int) float64 { return q }, solveInstr{}, nil)
}

// solveP2B is the shared per-server convex solve; qOf supplies the queue
// weight applied to each server's energy term (constant for the paper's
// global budget, per-room for the multi-budget extension). in records
// per-server solver work (the zero value records nothing).
//
// dl is polled exactly once, at entry — never per server. An expired
// deadline returns ErrSlotDeadline; the BDMA loop maps it to the best
// decision found so far.
func (s *System) solveP2B(sel Selection, st *trace.State, v float64, qOf func(server int) float64, in solveInstr, dl *solver.Deadline) (Frequencies, error) {
	if !(v > 0) {
		return nil, fmt.Errorf("core: P2-B needs V > 0, got %v", v)
	}
	if dl.Expired() {
		return nil, fmt.Errorf("core: P2-B: %w", ErrSlotDeadline)
	}
	servers := len(s.Net.Servers)

	// A_n = (Σ_{i→n} √(f_i/σ_{i,n}))².
	sums := borrowSums(0, servers)
	defer sums.release()
	sums.accumulateCompute(s, sel, st)
	computeSum := sums.compute

	freq := make(Frequencies, servers)
	for n := 0; n < servers; n++ {
		if !st.ActiveServer(n) {
			// Removed server: pinned at F^L, carries no load and no cost.
			freq[n] = s.Net.Servers[n].MinFreq
			continue
		}
		w, steps, solved, err := s.solveP2BServer(n, computeSum[n], st, v, qOf(n))
		if err != nil {
			return nil, err
		}
		if solved {
			in.p2bSolves.Inc()
			in.p2bIters.Observe(float64(steps))
		}
		freq[n] = w
	}
	return freq, nil
}

// solveP2BServer runs one server's golden-section minimization. solved
// is false for the flat-objective shortcut (no load and
// Q = 0), which performs no search and records no solver work.
func (s *System) solveP2BServer(n int, sum float64, st *trace.State, v, q float64) (w units.Frequency, steps int, solved bool, err error) {
	srv := &s.Net.Servers[n]
	a := sum * sum
	cores := float64(srv.Cores)
	capScale := st.Cap(n)
	model := s.Energy[n]
	obj := func(w float64) float64 {
		latency := 0.0
		if a > 0 {
			latency = a / (cores * w * capScale)
		}
		e := units.Over(units.Power(model.Power(units.Frequency(w)).Watts()*cores), units.Seconds(s.SlotSeconds))
		return v*latency + q*float64(st.Price.Cost(e))
	}
	// With no load and Q = 0 the objective is flat; golden section
	// still returns a boundary point, conventionally F^L.
	if a == 0 && q == 0 {
		return srv.MinFreq, 0, false, nil
	}
	x, _, steps, err := solver.Minimize1DSteps(obj, srv.MinFreq.Hertz(), srv.MaxFreq.Hertz(), 1e3)
	if err != nil {
		return 0, 0, false, fmt.Errorf("core: P2-B server %d: %w", n, err)
	}
	return units.Frequency(x), steps, true, nil
}

// P2Objective evaluates the P2 objective f(x, y, Ω) = V·T_t + Q·Θ for a
// candidate decision.
func (s *System) P2Objective(sel Selection, freq Frequencies, st *trace.State, v, q float64) float64 {
	return v*s.ReducedLatency(sel, freq, st).Value() + q*s.ThetaActive(freq, st.Price, st.ServerActive)
}
