package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// decisionDigest hashes one published decision: the selections, the
// server frequencies, and the backlog Q(t+1), bit for bit.
func decisionDigest(station, server []int, freqHz []float64, backlog float64) uint64 {
	var d digester
	for i := range station {
		d.add(uint64(int64(station[i])))
		d.add(uint64(int64(server[i])))
	}
	for _, f := range freqHz {
		d.add(math.Float64bits(f))
	}
	d.add(math.Float64bits(backlog))
	return d.sum()
}

// digester folds 64-bit words into an FNV-1a hash.
type digester struct{ h hash.Hash64 }

func (d *digester) add(v uint64) {
	if d.h == nil {
		d.h = fnv.New64a()
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) sum() uint64 {
	if d.h == nil {
		return 0
	}
	return d.h.Sum64()
}

// allocSample reads the cumulative heap allocation; it is package state so
// reading it allocates nothing inside a measured region.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAlloc returns the bytes allocated on the heap since the process
// started.
func heapAlloc() float64 {
	metrics.Read(allocSample)
	return float64(allocSample[0].Value.Uint64())
}

// gcStats is a reading of the runtime's GC counters.
type gcStats struct{ cycles, gcCPU, totalCPU float64 }

func (a gcStats) sub(b gcStats) gcStats {
	return gcStats{a.cycles - b.cycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a gcStats) add(b gcStats) gcStats {
	return gcStats{a.cycles + b.cycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcStats{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// hostProbe times a fixed CPU-bound kernel five times and returns the
// milliseconds of each: a reference for host speed, independent of the
// program under test.
func hostProbe() []float64 {
	out := make([]float64, 5)
	for i := range out {
		start := time.Now()
		x, acc := uint64(88172645463325252), 0.0
		for j := 0; j < 4_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += float64(x>>11) * 0x1p-53
		}
		probeSink = acc
		out[i] = msSince(start)
	}
	return out
}

// probeSink keeps the probe kernel from being optimized away.
var probeSink float64
