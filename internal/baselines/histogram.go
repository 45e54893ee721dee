package baselines

import (
	"sort"

	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
	"github.com/ubc-cirrus-lab/femux-go/internal/sim"
)

// HybridHistogramPolicy implements the hybrid-histogram lifetime policy of
// Shahrad et al. (ATC'20, "Serverless in the Wild"), which the paper's
// related-work section positions against FeMux: each application tracks a
// histogram of its idle times; after traffic stops, capacity is released
// and re-provisioned just before the next invocation is expected — warm
// again from the idle-time distribution's PreWarmPercentile until its
// KeepAlivePercentile. Applications whose idle times the histogram cannot
// represent (too few samples) fall back to a fixed keep-alive window.
type HybridHistogramPolicy struct {
	PreWarmPercentile   float64 // e.g. 0.05: earliest plausible next arrival
	KeepAlivePercentile float64 // e.g. 0.99: latest plausible next arrival
	MinSamples          int     // histogram confidence threshold
	FallbackKeepAlive   int     // intervals, when the histogram is unusable
}

// DefaultHybridHistogram returns the policy with the original paper's
// percentile settings.
func DefaultHybridHistogram() HybridHistogramPolicy {
	return HybridHistogramPolicy{
		PreWarmPercentile:   0.05,
		KeepAlivePercentile: 0.99,
		MinSamples:          5,
		FallbackKeepAlive:   10,
	}
}

// Name implements sim.Policy.
func (HybridHistogramPolicy) Name() string { return "hybrid-histogram" }

// Target implements sim.Policy. The history is per-interval average
// concurrency; idle times are run lengths of zero-demand intervals between
// active intervals.
func (p HybridHistogramPolicy) Target(history []float64, unitConcurrency int, _ *forecast.Workspace) int {
	n := len(history)
	if n == 0 {
		return 0
	}
	// Current idle run length and recent active peak.
	elapsed := 0
	for i := n - 1; i >= 0 && history[i] == 0; i-- {
		elapsed++
	}
	peak := recentActivePeak(history)
	units := unitsCeilConc(peak, unitConcurrency)
	if units == 0 {
		return 0
	}
	if elapsed == 0 {
		// Actively serving: keep capacity.
		return units
	}
	gaps := idleGaps(history[:n-elapsed])
	if len(gaps) < p.MinSamples {
		// Not enough history: fixed keep-alive fallback.
		if elapsed <= p.FallbackKeepAlive {
			return units
		}
		return 0
	}
	sort.Ints(gaps)
	pre := percentileInt(gaps, p.PreWarmPercentile)
	ka := percentileInt(gaps, p.KeepAlivePercentile)
	// Warm during the window when the next invocation is plausible. A
	// pre-warm bound below 2 keeps the container alive continuously (the
	// policy's "keep-alive only" degenerate case).
	if pre < 2 {
		if elapsed <= ka {
			return units
		}
		return 0
	}
	if elapsed >= pre-1 && elapsed <= ka {
		return units
	}
	return 0
}

// recentActivePeak returns the peak concurrency over the most recent active
// episode (up to the last 30 intervals of nonzero demand).
func recentActivePeak(history []float64) float64 {
	peak := 0.0
	seen := 0
	for i := len(history) - 1; i >= 0 && seen < 30; i-- {
		if history[i] > 0 {
			if history[i] > peak {
				peak = history[i]
			}
			seen++
		}
	}
	return peak
}

// idleGaps extracts completed zero-demand run lengths between active
// intervals.
func idleGaps(history []float64) []int {
	var gaps []int
	run := 0
	active := false
	for _, v := range history {
		if v > 0 {
			if active && run > 0 {
				gaps = append(gaps, run)
			}
			active = true
			run = 0
			continue
		}
		if active {
			run++
		}
	}
	return gaps
}

func percentileInt(sorted []int, p float64) int {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func unitsCeilConc(conc float64, unitC int) int {
	if conc <= 0 {
		return 0
	}
	if unitC < 1 {
		unitC = 1
	}
	u := int(conc) / unitC
	for float64(u*unitC) < conc {
		u++
	}
	return u
}

// Interface check.
var _ sim.Policy = HybridHistogramPolicy{}
