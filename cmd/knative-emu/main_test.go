package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestQuantileLevelChecked pins the -quantile-level check: 0 (the point
// forecast) and levels inside (0, 1) run; 1, anything past it, a
// negative level, NaN and the infinities are refused with an error that
// names the flag.
func TestQuantileLevelChecked(t *testing.T) {
	for _, c := range []struct {
		level float64
		ok    bool
	}{
		{0, true}, {0.5, true}, {0.95, true}, {math.Nextafter(1, 0), true},
		{1, false}, {1.5, false}, {-0.1, false}, {math.Copysign(0, -1), true},
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		t.Run(strconv.FormatFloat(c.level, 'g', -1, 64), func(t *testing.T) {
			err := checkQuantileLevel(c.level)
			if c.ok != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, c.ok)
			}
			if err != nil && !strings.Contains(err.Error(), "-quantile-level") {
				t.Fatalf("the error %q does not name the flag", err)
			}
		})
	}
}
