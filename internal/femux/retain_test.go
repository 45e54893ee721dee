package femux

import (
	"runtime"
	"testing"
)

// TestTrainedModelSizeIndependentOfBlocks pins that a trained Model holds
// summaries only: two models trained on fleets whose block counts differ
// by over a thousand must cost the same live heap to within 16 KiB, where
// any per-block table kept in the model would add tens of bytes a block.
func TestTrainedModelSizeIndependentOfBlocks(t *testing.T) {
	cfg := testConfig()
	trainFleet := func(n, minutes int) *Model {
		m, err := Train(mixedFleet(83, n, minutes), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	trainFleet(6, 288) // creates whatever process-wide tables training uses
	h0 := heap()
	small := trainFleet(6, 288) // 24 blocks
	h1 := heap()
	large := trainFleet(30, 72*36) // 1,080 blocks
	h2 := heap()
	runtime.KeepAlive(small)
	runtime.KeepAlive(large)
	if small.Diag.Blocks != 24 || large.Diag.Blocks != 1080 {
		t.Fatalf("trained %d and %d blocks, want 24 and 1080", small.Diag.Blocks, large.Diag.Blocks)
	}
	extra := (h2 - h1) - (h1 - h0)
	t.Logf("models hold %d and %d bytes", h1-h0, h2-h1)
	if extra >= 16<<10 {
		t.Errorf("the 1,080-block model holds %d bytes more than the 24-block one, want < 16 KiB", extra)
	}
}
