package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestSensitivityTablesRenderInKeyOrder: the Fig 17, Fig 18 and block-size
// tables render the same text on every call, their rows sorted by key,
// however the maps behind them iterate.
func TestSensitivityTablesRenderInKeyOrder(t *testing.T) {
	fig17 := Fig17Result{Individual: map[string]VariantOutcome{}}
	fig18 := Fig18Result{RUM: map[string]float64{}}
	block := BlockSizeResult{RUM: map[int]float64{}}
	for i := 0; i < 12; i++ {
		fig17.Individual[fmt.Sprintf("fc-%02d", 11-i)] = VariantOutcome{RUM: float64(i)}
		fig18.RUM[fmt.Sprintf("feat-%02d+x", i*7%12)] = float64(i)
		block.RUM[60*(12-i)] = float64(i)
	}
	for _, c := range []struct {
		name   string
		render func() string
		first  string // the first row's key
	}{
		{"fig17", fig17.String, "fc-00"},
		{"fig18", fig18.String, "feat-00+x"},
		{"blocksize", block.String, "block   60 min"},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := c.render()
			for i := 0; i < 20; i++ {
				if got := c.render(); got != want {
					t.Fatalf("call %d rendered\n%s\nthen\n%s", i, want, got)
				}
			}
			rows := strings.Split(strings.TrimSpace(want), "\n")
			if c.name == "fig17" {
				rows = rows[1:] // the FeMux line leads
			}
			if len(rows) != 12 || !strings.HasPrefix(strings.TrimSpace(rows[0]), c.first) {
				t.Fatalf("rows start %q, want %d rows from %q:\n%s", rows[0], 12, c.first, want)
			}
		})
	}
}
