package knative

import (
	"sync"

	"github.com/ubc-cirrus-lab/femux-go/internal/femux"
	"github.com/ubc-cirrus-lab/femux-go/internal/forecast"
)

// ScaleProvider is the hook through which FeMux overrides the default
// reactive autoscaler (Fig 13): once per minute the emulation reports the
// completed minute's average concurrency and receives the pod target to
// hold until the next report. ok=false falls back to the reactive logic.
type ScaleProvider interface {
	Target(app string, minuteAvg float64, unitConcurrency int) (target int, ok bool)
}

// DirectProvider hosts FeMux AppPolicy instances in-process — the
// configuration used for fast emulation runs. It is safe for concurrent
// use.
type DirectProvider struct {
	model *femux.Model

	// QuantileLevel, when positive, provisions every decision for that
	// forecast quantile of demand instead of the point forecast (the
	// emulator's -quantile-level knob). Set before first use.
	QuantileLevel float64

	mu   sync.Mutex
	apps map[string]*directApp
}

type directApp struct {
	mu     sync.Mutex
	policy *femux.AppPolicy
	hotTail
}

// NewDirectProvider returns a provider backed by a trained model.
func NewDirectProvider(model *femux.Model) *DirectProvider {
	return &DirectProvider{model: model, apps: map[string]*directApp{}}
}

// Target implements ScaleProvider. Per-app state (the policy and the
// bounded history tail) is guarded by the app's own lock, so apps proceed
// concurrently while each app's decisions stay serialized; the forecast
// runs in a borrowed workspace.
func (p *DirectProvider) Target(app string, minuteAvg float64, unitConcurrency int) (int, bool) {
	p.mu.Lock()
	st, ok := p.apps[app]
	if !ok {
		st = &directApp{policy: p.model.NewAppPolicy(0)}
		p.apps[app] = st
	}
	p.mu.Unlock()

	st.mu.Lock()
	// No store holds this history: the tail is the block source too.
	st.push(minuteAvg, p.model.Keep(st.n+1))
	ws := forecast.GetWorkspace()
	target, _, _ := st.policy.Decide(st.history, st.n, unitConcurrency, p.QuantileLevel, ws)
	forecast.PutWorkspace(ws)
	st.mu.Unlock()
	return target, true
}

// ForecastersUsed reports the distinct forecaster count per app, for
// diagnostics.
func (p *DirectProvider) ForecastersUsed() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.apps))
	for name, st := range p.apps {
		out[name] = st.policy.ForecastersUsed()
	}
	return out
}
