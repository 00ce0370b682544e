package core

import (
	"reflect"
	"runtime"
	"testing"

	"eotora/internal/rng"
	"eotora/internal/trace"
)

// shardedMetroController returns a sharded (ShardsAuto) controller on a
// metro system of the given size with its recorded states, at the metro
// operating point z = 2, λ = 0.05.
func shardedMetroController(t *testing.T, devices, slots int) (*Controller, []*trace.State) {
	t.Helper()
	sys, gen := buildMetroSystem(t, devices, 21)
	ctrl, err := NewBDMAController(sys, 100, 2, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SetShards(ShardsAuto); err != nil {
		t.Fatal(err)
	}
	return ctrl, trace.Record(gen, slots)
}

// slotCopy is a deep copy of the caller-visible decision of a slot.
type slotCopy struct {
	station, server           []int
	access, fronthaul, comp   []float64
	perDevice                 []LatencyBreakdown
	freq                      Frequencies
	objective, latency, theta float64
}

func copySlot(r *SlotResult) slotCopy {
	c := slotCopy{
		station:   append([]int(nil), r.Decision.Station...),
		server:    append([]int(nil), r.Decision.Server...),
		access:    append([]float64(nil), r.Decision.AccessShare...),
		fronthaul: append([]float64(nil), r.Decision.FronthaulShare...),
		comp:      append([]float64(nil), r.Decision.ComputeShare...),
		freq:      r.Decision.Freq.Clone(),
		objective: r.Objective,
		latency:   r.Latency.Value(),
		theta:     r.Theta,
		perDevice: append([]LatencyBreakdown(nil), r.PerDevice...),
	}
	return c
}

// TestSlotResultNotAliased guards the reuse of BDMA's per-round selection
// buffers: the result of slot t must stay intact while slot t+1 is
// decided in the same P2A, and two System.BDMA results must not share
// memory.
func TestSlotResultNotAliased(t *testing.T) {
	ctrl, states := shardedMetroController(t, 2000, 4)
	prev, err := ctrl.Step(states[0])
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot < len(states); slot++ {
		want := copySlot(prev)
		next, err := ctrl.Step(states[slot])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(copySlot(prev), want) {
			t.Fatalf("slot %d result changed while slot %d was decided", slot, slot+1)
		}
		if &next.Decision.Station[0] == &prev.Decision.Station[0] ||
			&next.Decision.Server[0] == &prev.Decision.Server[0] {
			t.Fatalf("slot %d selection shares memory with slot %d", slot+1, slot)
		}
		prev = next
	}

	sys := ctrl.System()
	cfg := BDMAConfig{Iterations: 2, Solver: CGBASolver{Lambda: 0.05, Shards: ShardsAuto}}
	a, err := sys.BDMA(states[0], 100, 5, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	wantA := a.Selection.Clone()
	wantFreq := a.Freq.Clone()
	b, err := sys.BDMA(states[1], 100, 7, cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Selection, wantA) || !reflect.DeepEqual(a.Freq, wantFreq) {
		t.Fatal("BDMA result changed after a later BDMA call")
	}
	if &a.Selection.Station[0] == &b.Selection.Station[0] || &a.Freq[0] == &b.Freq[0] {
		t.Fatal("two BDMA results share memory")
	}
}

// resultBytes is the heap footprint of the slices a SlotResult owns.
func resultBytes(r *SlotResult) uint64 {
	d := r.Decision
	words := len(d.Station) + len(d.Server) + len(d.AccessShare) + len(d.FronthaulShare) +
		len(d.ComputeShare) + 3*len(r.PerDevice) + len(d.Freq) // LatencyBreakdown is 3 words
	return uint64(8 * words)
}

// heapBytes returns the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWarmSlotAllocBytes pins what a warm slot allocates: the decision
// the caller keeps, and little else. BDMA's round selections, the
// snapshot and the game arenas are P2A scratch reused across slots.
func TestWarmSlotAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement in -short mode")
	}
	ctrl, states := shardedMetroController(t, 2000, 6)
	var last *SlotResult
	step := func(i int) {
		r, err := ctrl.Step(states[i%len(states)])
		if err != nil {
			t.Fatal(err)
		}
		last = r
	}
	for i := 0; i < 3; i++ { // cold slot, first mutation, warm-up
		step(i)
	}
	const slots = 6
	bytes := heapBytes(func() {
		for i := 3; i < 3+slots; i++ {
			step(i)
		}
	})
	perSlot := float64(bytes) / slots
	own := float64(resultBytes(last))
	t.Logf("warm slot allocates %.0f B, result footprint %.0f B (%.2fx)", perSlot, own, perSlot/own)
	if perSlot > 1.25*own {
		t.Errorf("warm slot allocates %.0f B, more than 1.25x its result's %.0f B", perSlot, own)
	}

	// A rebuild of an equal-sized state reuses every arena: it may
	// allocate O(devices) bytes, never the game arena again.
	sys := ctrl.System()
	p := new(P2A)
	freq := sys.LowestFrequencies()
	if err := sys.BuildP2A(p, states[0], freq); err != nil {
		t.Fatal(err)
	}
	devices := len(states[0].TaskSizes)
	rebuild := heapBytes(func() {
		if err := sys.BuildP2A(p, states[1], freq); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("second BuildP2A allocates %d B for %d devices", rebuild, devices)
	if rebuild > uint64(8*devices) {
		t.Errorf("second BuildP2A allocates %d B, want ≤ %d (8 B/device)", rebuild, 8*devices)
	}
}
