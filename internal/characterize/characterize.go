// Package characterize computes the workload statistics reported in the
// paper's characterization (§3, Figs 1-7) and appendix (Figs 15-16) from a
// trace dataset: traffic seasonality, inter-arrival-time distributions,
// execution-time distributions and variability, platform-delay
// distributions, configuration shares, and cross-workload traffic shares.
package characterize

import (
	"sort"
	"time"

	"github.com/ubc-cirrus-lab/femux-go/internal/stats"
	"github.com/ubc-cirrus-lab/femux-go/internal/trace"
)

// Traffic buckets the dataset's invocations into fixed windows (Fig 1 uses
// hours) and returns the counts.
func Traffic(d *trace.Dataset, bucket time.Duration) []float64 {
	if bucket <= 0 {
		bucket = time.Hour
	}
	n := int(d.Horizon/bucket) + 1
	out := make([]float64, n)
	for _, a := range d.Apps {
		for _, inv := range a.Invocations {
			b := int(inv.Arrival / bucket)
			if b >= 0 && b < n {
				out[b]++
			}
		}
	}
	return out
}

// SeasonalityStats summarizes Fig 1: the peak-to-trough span of daily
// traffic relative to peak, separately for weekdays and weekends, and the
// ratio of late-trace to early-trace volume (the seasonal ramp).
type SeasonalityStats struct {
	WeekdaySpan  float64 // (peak - trough) / peak over mean weekday hours
	WeekendSpan  float64
	SeasonalGain float64 // second-half volume / first-half volume
}

// Seasonality computes SeasonalityStats from hourly traffic counts. At
// least one full day is required; weekend statistics stay zero until the
// trace covers a weekend.
func Seasonality(hourly []float64) SeasonalityStats {
	var s SeasonalityStats
	if len(hourly) < 24 {
		return s
	}
	// Average each hour-of-day across weekdays and weekends.
	var wk, we [24]float64
	var wkN, weN [24]int
	for h, v := range hourly {
		day := (h / 24) % 7
		hod := h % 24
		if day >= 5 {
			we[hod] += v
			weN[hod]++
		} else {
			wk[hod] += v
			wkN[hod]++
		}
	}
	span := func(sum [24]float64, n [24]int) float64 {
		peak, trough := 0.0, -1.0
		for h := 0; h < 24; h++ {
			if n[h] == 0 {
				continue
			}
			avg := sum[h] / float64(n[h])
			if avg > peak {
				peak = avg
			}
			if trough < 0 || avg < trough {
				trough = avg
			}
		}
		if peak <= 0 || trough < 0 {
			return 0
		}
		return (peak - trough) / peak
	}
	s.WeekdaySpan = span(wk, wkN)
	s.WeekendSpan = span(we, weN)

	half := len(hourly) / 2
	var first, second float64
	for i, v := range hourly {
		if i < half {
			first += v
		} else {
			second += v
		}
	}
	if first > 0 {
		s.SeasonalGain = second / first
	}
	return s
}

// IATStats summarizes Fig 2.
type IATStats struct {
	// Invocation-level.
	SubSecondInvFrac float64 // share of all IATs under 1 s (paper: 94.5%)
	SubMinuteInvFrac float64 // share under 60 s (paper: 99.8%)
	// Workload-level.
	SubSecondMedianFrac float64 // workloads with median IAT < 1 s (paper: 46%)
	SubMinuteMedianFrac float64 // workloads with median IAT < 60 s (paper: 86%)
	CVAbove1Frac        float64 // workloads with IAT CV > 1 (paper: 96%)
	MedianIATs          []float64
	P99IATs             []float64
}

// IAT computes the inter-arrival-time characterization. Workloads with
// fewer than minInvocations invocations are excluded from workload-level
// statistics (they have no meaningful IAT distribution).
func IAT(d *trace.Dataset, minInvocations int) IATStats {
	if minInvocations < 2 {
		minInvocations = 2
	}
	var out IATStats
	var subSec, subMin, total int
	var apps, medSec, medMin, cvHigh int
	for _, a := range d.Apps {
		iats := a.IATs()
		for _, v := range iats {
			total++
			if v < 1 {
				subSec++
			}
			if v < 60 {
				subMin++
			}
		}
		if len(a.Invocations) < minInvocations {
			continue
		}
		apps++
		med := stats.Median(iats)
		out.MedianIATs = append(out.MedianIATs, med)
		out.P99IATs = append(out.P99IATs, stats.Percentile(iats, 99))
		if med < 1 {
			medSec++
		}
		if med < 60 {
			medMin++
		}
		if stats.CV(iats) > 1 {
			cvHigh++
		}
	}
	if total > 0 {
		out.SubSecondInvFrac = float64(subSec) / float64(total)
		out.SubMinuteInvFrac = float64(subMin) / float64(total)
	}
	if apps > 0 {
		out.SubSecondMedianFrac = float64(medSec) / float64(apps)
		out.SubMinuteMedianFrac = float64(medMin) / float64(apps)
		out.CVAbove1Frac = float64(cvHigh) / float64(apps)
	}
	return out
}

// ExecStats summarizes Figs 3 and 4.
type ExecStats struct {
	SubSecondAppFrac float64   // apps with mean exec < 1 s (paper: 82%)
	SubSecondInvFrac float64   // invocations with exec < 1 s (paper: 96%)
	MedianOfMeans    float64   // median per-app mean (paper: ~10 ms)
	MedianOfP99s     float64   // median per-app p99 (paper: ~800 ms)
	AppMeans         []float64 // per-app mean exec seconds
	AppP99s          []float64
}

// Exec computes the execution-time characterization.
func Exec(d *trace.Dataset) ExecStats {
	var out ExecStats
	var subSecApps, apps int
	var subSecInv, totalInv int
	for _, a := range d.Apps {
		if len(a.Invocations) == 0 {
			continue
		}
		durs := a.Durations()
		for _, v := range durs {
			totalInv++
			if v < 1 {
				subSecInv++
			}
		}
		apps++
		mean := stats.Mean(durs)
		out.AppMeans = append(out.AppMeans, mean)
		out.AppP99s = append(out.AppP99s, stats.Percentile(durs, 99))
		if mean < 1 {
			subSecApps++
		}
	}
	if apps > 0 {
		out.SubSecondAppFrac = float64(subSecApps) / float64(apps)
		out.MedianOfMeans = stats.Median(out.AppMeans)
		out.MedianOfP99s = stats.Median(out.AppP99s)
	}
	if totalInv > 0 {
		out.SubSecondInvFrac = float64(subSecInv) / float64(totalInv)
	}
	return out
}

// DelayStats summarizes Fig 6 from per-app platform-delay samples (seconds).
type DelayStats struct {
	SubMsInvFrac      float64 // invocations with delay < 1 ms
	P99Below10msFrac  float64 // workloads with p99 delay < 10 ms (paper: 73%)
	P99Above1sFrac    float64 // workloads with p99 delay > 1 s (paper: ~20%)
	P99Above10sFrac   float64 // workloads with p99 delay > 10 s (paper: ~9%)
	MaxDelay          float64 // the extreme tail (paper: > 300 s)
	WorkloadP99Delays []float64
}

// PlatformDelay computes the delay characterization from per-app delay
// vectors, in seconds (as the Knative emulator, sim.Emulate, returns them).
func PlatformDelay(perApp [][]float64) DelayStats {
	var out DelayStats
	var subMs, total int
	var apps int
	for _, delays := range perApp {
		if len(delays) == 0 {
			continue
		}
		apps++
		for _, v := range delays {
			total++
			if v < 0.001 {
				subMs++
			}
			if v > out.MaxDelay {
				out.MaxDelay = v
			}
		}
		out.WorkloadP99Delays = append(out.WorkloadP99Delays, stats.Percentile(delays, 99))
	}
	if total > 0 {
		out.SubMsInvFrac = float64(subMs) / float64(total)
	}
	if apps > 0 {
		out.P99Below10msFrac = stats.FractionBelow(out.WorkloadP99Delays, 0.010)
		out.P99Above1sFrac = 1 - stats.CDFAt(out.WorkloadP99Delays, 1)
		out.P99Above10sFrac = 1 - stats.CDFAt(out.WorkloadP99Delays, 10)
	}
	return out
}

// ConfigStats summarizes Fig 7: how users alter the default configurations.
type ConfigStats struct {
	CPUDefaultFrac, CPUBelowFrac, CPUAboveFrac     float64
	MemDefaultFrac, MemBelowFrac, MemAboveFrac     float64
	MinScale0Frac, MinScale1Frac, MinScaleMoreFrac float64
	ConcDefaultFrac, ConcBelowFrac, ConcAboveFrac  float64
}

// Configs computes the configuration shares over the dataset's apps.
func Configs(d *trace.Dataset) ConfigStats {
	var out ConfigStats
	n := float64(len(d.Apps))
	if n == 0 {
		return out
	}
	for _, a := range d.Apps {
		c := a.Config
		switch {
		case c.CPU == 1:
			out.CPUDefaultFrac++
		case c.CPU < 1:
			out.CPUBelowFrac++
		default:
			out.CPUAboveFrac++
		}
		switch {
		case c.MemoryGB == 4:
			out.MemDefaultFrac++
		case c.MemoryGB < 4:
			out.MemBelowFrac++
		default:
			out.MemAboveFrac++
		}
		switch {
		case c.MinScale == 0:
			out.MinScale0Frac++
		case c.MinScale == 1:
			out.MinScale1Frac++
		default:
			out.MinScaleMoreFrac++
		}
		switch {
		case c.Concurrency == 100:
			out.ConcDefaultFrac++
		case c.Concurrency < 100:
			out.ConcBelowFrac++
		default:
			out.ConcAboveFrac++
		}
	}
	div := func(v *float64) { *v /= n }
	for _, v := range []*float64{
		&out.CPUDefaultFrac, &out.CPUBelowFrac, &out.CPUAboveFrac,
		&out.MemDefaultFrac, &out.MemBelowFrac, &out.MemAboveFrac,
		&out.MinScale0Frac, &out.MinScale1Frac, &out.MinScaleMoreFrac,
		&out.ConcDefaultFrac, &out.ConcBelowFrac, &out.ConcAboveFrac,
	} {
		div(v)
	}
	return out
}

// TrafficShares returns each workload's share of total traffic, sorted
// descending (Fig 15). The second return value counts workloads with at
// least 10% of the busiest workload's traffic.
func TrafficShares(d *trace.Dataset) (shares []float64, atLeastTenthOfMax int) {
	counts := make([]float64, 0, len(d.Apps))
	var total float64
	for _, a := range d.Apps {
		c := float64(len(a.Invocations))
		counts = append(counts, c)
		total += c
	}
	if total == 0 {
		return nil, 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(counts)))
	max := counts[0]
	shares = make([]float64, len(counts))
	for i, c := range counts {
		shares[i] = c / total
		if max > 0 && c >= max/10 {
			atLeastTenthOfMax++
		}
	}
	return shares, atLeastTenthOfMax
}

// HourlySeries returns an app's hourly invocation counts (Fig 16).
func HourlySeries(a *trace.App, horizon time.Duration) []float64 {
	n := int(horizon/time.Hour) + 1
	out := make([]float64, n)
	for _, inv := range a.Invocations {
		h := int(inv.Arrival / time.Hour)
		if h >= 0 && h < n {
			out[h]++
		}
	}
	return out
}
