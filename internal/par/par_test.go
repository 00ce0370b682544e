package par

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"eotora/internal/obs"
)

// span returns the contiguous half-open range [lo, hi) of n items that
// shard s of shards owns.
func span(n, shards, s int) (lo, hi int) {
	return s * n / shards, (s + 1) * n / shards
}

// workers reads a pool's size from the gauge Instrument publishes.
func workers(p *Pool) float64 {
	reg := obs.New()
	p.Instrument(reg)
	return reg.Snapshot().Gauges[MetricWorkers]
}

// fillTask writes shard indices into disjoint spans of out — the shape
// every real region has: per-shard work, preallocated slots.
type fillTask struct {
	out    []int
	shards int
}

func (t *fillTask) Run(shard int) {
	lo, hi := span(len(t.out), t.shards, shard)
	for i := lo; i < hi; i++ {
		t.out[i] = shard
	}
}

// countTask counts Run invocations (atomically: shards run concurrently).
type countTask struct{ n atomic.Int64 }

func (t *countTask) Run(int) { t.n.Add(1) }

func poolSizes() []int {
	return []int{1, 2, 3, runtime.NumCPU(), runtime.NumCPU() + 2}
}

func TestRunCoversAllShards(t *testing.T) {
	for _, size := range poolSizes() {
		p := New(size)
		for _, shards := range []int{1, 2, size, 3 * size, 17} {
			task := &fillTask{out: make([]int, 101), shards: shards}
			for i := range task.out {
				task.out[i] = -1
			}
			p.Run(shards, task)
			for i, got := range task.out {
				lo, _ := span(len(task.out), shards, got)
				_, hi := span(len(task.out), shards, got)
				if got < 0 || got >= shards || i < lo || i >= hi {
					t.Fatalf("size %d shards %d: out[%d] = %d", size, shards, i, got)
				}
			}
		}
		p.Close()
	}
}

func TestRunNilPool(t *testing.T) {
	var p *Pool
	task := &countTask{}
	p.Run(5, task)
	if got := task.n.Load(); got != 5 {
		t.Fatalf("nil pool ran %d shards, want 5", got)
	}
	p.Close()         // no-op
	p.Instrument(nil) // no-op
}

func TestRunZeroShards(t *testing.T) {
	p := New(4)
	defer p.Close()
	task := &countTask{}
	p.Run(0, task)
	p.Run(-3, task)
	if got := task.n.Load(); got != 0 {
		t.Fatalf("ran %d shards for empty regions", got)
	}
}

func TestPoolReuse(t *testing.T) {
	p := New(3)
	defer p.Close()
	task := &countTask{}
	const regions, shards = 200, 7
	for r := 0; r < regions; r++ {
		p.Run(shards, task)
	}
	if got := task.n.Load(); got != regions*shards {
		t.Fatalf("ran %d shard executions, want %d", got, regions*shards)
	}
}

func TestCloseDegradesToSerial(t *testing.T) {
	p := New(4)
	p.Close()
	if got := workers(p); got != 1 {
		t.Fatalf("workers after Close = %v, want 1", got)
	}
	task := &countTask{}
	p.Run(6, task) // must run on the caller, no helpers left
	if got := task.n.Load(); got != 6 {
		t.Fatalf("closed pool ran %d shards, want 6", got)
	}
	p.Close() // second Close is a no-op
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	p := New(0)
	defer p.Close()
	if got, want := workers(p), float64(runtime.GOMAXPROCS(0)); got != want {
		t.Fatalf("New(0) has %v workers, want %v", got, want)
	}
}

// sumTask accumulates per-shard partial sums into preallocated slots;
// the caller reduces in shard order — the canonical deterministic
// reduction.
type sumTask struct {
	in     []float64
	part   []float64
	shards int
}

func (t *sumTask) Run(shard int) {
	lo, hi := span(len(t.in), t.shards, shard)
	s := 0.0
	for i := lo; i < hi; i++ {
		s += t.in[i]
	}
	t.part[shard] = s
}

// TestShardedReductionDeterministic locks the pattern the solvers rely
// on: identical shard counts yield bit-identical reductions regardless
// of pool size or scheduling.
func TestShardedReductionDeterministic(t *testing.T) {
	in := make([]float64, 1000)
	x := 0.5
	for i := range in {
		x = 4 * x * (1 - x) // chaotic but deterministic values
		in[i] = x
	}
	const shards = 8
	want := math.NaN()
	for _, size := range poolSizes() {
		p := New(size)
		for rep := 0; rep < 5; rep++ {
			task := &sumTask{in: in, part: make([]float64, shards), shards: shards}
			p.Run(shards, task)
			total := 0.0
			for _, s := range task.part {
				total += s
			}
			if math.IsNaN(want) {
				want = total
			} else if math.Float64bits(total) != math.Float64bits(want) {
				t.Fatalf("size %d rep %d: sum bits %x, want %x",
					size, rep, math.Float64bits(total), math.Float64bits(want))
			}
		}
		p.Close()
	}
}

func TestInstruments(t *testing.T) {
	reg := obs.New()
	p := New(2)
	defer p.Close()
	p.Instrument(reg)
	task := &countTask{}
	p.Run(4, task) // parallel region: recorded
	p.Run(1, task) // single shard: serial fallback, not recorded
	snap := reg.Snapshot()
	if got := snap.Counters[MetricRegions]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricRegions, got)
	}
	if got := snap.Gauges[MetricWorkers]; got != 2 {
		t.Fatalf("%s = %v, want 2", MetricWorkers, got)
	}
	h, ok := snap.Histograms[MetricRegionShards]
	if !ok || h.Count != 1 || h.Sum != 4 {
		t.Fatalf("%s = %+v, want count 1 sum 4", MetricRegionShards, h)
	}
	p.Instrument(nil) // detach: further regions don't record
	p.Run(4, task)
	if got := reg.Snapshot().Counters[MetricRegions]; got != 1 {
		t.Fatalf("detached pool still recorded: %d", got)
	}
}
