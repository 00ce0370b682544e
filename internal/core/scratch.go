package core

import (
	"math"
	"sync"

	"eotora/internal/trace"
)

// slotSums is pooled accumulator scratch for the per-station and
// per-server sums that ReducedLatency, OptimalAllocation, and solveP2B
// rebuild every call — the Σ √(d/h) and Σ √(f/σ) denominators of
// Lemma 1. Pooling them takes the controller's steady-state slot from
// O(rounds·resources) transient slices down to near-zero heap traffic;
// the values are zeroed on borrow and accumulated in the same order as
// before, so every result is bit-identical to the allocating path.
type slotSums struct {
	access    []float64
	fronthaul []float64
	compute   []float64
}

var sumsPool = sync.Pool{New: func() any { return new(slotSums) }}

// borrowSums returns zeroed scratch sized for the system's stations and
// servers. Callers must release it when done and must not retain the
// slices afterwards.
func borrowSums(stations, servers int) *slotSums {
	sc := sumsPool.Get().(*slotSums)
	sc.access = resizeZeroFloat(sc.access, stations)
	sc.fronthaul = resizeZeroFloat(sc.fronthaul, stations)
	sc.compute = resizeZeroFloat(sc.compute, servers)
	return sc
}

func (sc *slotSums) release() { sumsPool.Put(sc) }

func resizeZeroFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// accumulate fills all three Lemma-1 denominator sets for (sel, st).
func (sc *slotSums) accumulate(s *System, sel Selection, st *trace.State) {
	for i := range sel.Station {
		k, n := sel.Station[i], sel.Server[i]
		if k < 0 || n < 0 {
			// Inactive device: no resource demand.
			continue
		}
		sc.access[k] += math.Sqrt(st.DataLengths[i].Bits() / st.Channels[i][k].BpsPerHz())
		sc.fronthaul[k] += math.Sqrt(st.DataLengths[i].Bits() / st.FronthaulSE[k].BpsPerHz())
		sc.compute[n] += math.Sqrt(st.TaskSizes[i].Count() / s.Net.Suitability[i][n])
	}
}

// accumulateCompute fills only the per-server compute sums (P2-B's A_n).
func (sc *slotSums) accumulateCompute(s *System, sel Selection, st *trace.State) {
	for i := range sel.Server {
		n := sel.Server[i]
		if n < 0 {
			continue
		}
		sc.compute[n] += math.Sqrt(st.TaskSizes[i].Count() / s.Net.Suitability[i][n])
	}
}
