package mathx

import (
	"fmt"
	"runtime"
	"testing"
)

// liveHeap is HeapAlloc after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestDroppedScratchRetainsNoPlans pins that a Bluestein plan lives no
// longer than the scratch that built it: once a scratch has transformed
// every length from 3 to 300 and is dropped, only the process-wide
// twiddle tables, which the warm-up already created, may remain. The
// warm-up runs longest first, so anything it leaves cached is small, and
// the measured run ends on the longest lengths, whose plans are ~20 KB
// each: a cache that outlives its scratch shows as tens of KB.
func TestDroppedScratchRetainsNoPlans(t *testing.T) {
	x := make([]float64, 300)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	warm := new(FFTScratch)
	for n := len(x); n >= 3; n-- {
		warm.FFTReal(x[:n])
	}
	warm = nil
	before := liveHeap()
	func() {
		s := new(FFTScratch)
		for n := 3; n <= len(x); n++ {
			s.FFTReal(x[:n])
		}
	}()
	grew := liveHeap() - before
	t.Logf("live heap grew by %d bytes", grew)
	if grew >= 8<<10 {
		t.Errorf("a dropped scratch left %d bytes live, want < 8 KiB", grew)
	}
	runtime.KeepAlive(x)
}

// TestScratchKeepsLongestPlan pins which plans a scratch keeps: the
// longest length it has seen, which is the forecast window every mature
// app transforms, survives any run of shorter lengths, and building those
// allocates nothing once both slots have grown.
func TestScratchKeepsLongestPlan(t *testing.T) {
	x := make([]float64, 120)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	var s FFTScratch
	for _, n := range []int{57, 120, 100, 83} {
		s.FFTReal(x[:n])
	}
	if s.blue[0].n != 120 || s.blue[1].n != 83 {
		t.Fatalf("kept plans of lengths %d and %d, want 120 and 83", s.blue[0].n, s.blue[1].n)
	}
	lens := []int{120, 100, 90, 120, 83}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		s.FFTReal(x[:lens[i%len(lens)]])
		i++
	})
	if allocs != 0 {
		t.Errorf("%v allocs per transform over lengths %v, want 0", allocs, lens)
	}
}

// BenchmarkFFTRealAlternating measures a scratch that cycles through
// Bluestein lengths, as a pooled forecast workspace does when it serves
// apps at the full window (120) between apps still filling it: the
// window's plan is kept throughout, and each shorter length that differs
// from the one before rebuilds the other plan.
func BenchmarkFFTRealAlternating(b *testing.B) {
	x := make([]float64, 120)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	for _, lens := range [][]int{{120}, {120, 100}, {120, 100, 120, 90}} {
		b.Run(fmt.Sprint(lens), func(b *testing.B) {
			var s FFTScratch
			for _, n := range lens {
				s.FFTReal(x[:n])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.FFTReal(x[:lens[i%len(lens)]])
			}
		})
	}
}
