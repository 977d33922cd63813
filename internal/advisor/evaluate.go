package advisor

import (
	"fmt"
	"time"

	"vani/internal/spec"
	"vani/internal/workloads"
)

// Impact quantifies one recommendation's effect: the workload re-run with
// only that recommendation applied, against the unmodified baseline. It
// is the experimental backing the paper's Section IV-D guidelines imply —
// each attribute-driven optimization can be validated in isolation.
type Impact struct {
	Recommendation  Recommendation
	Applied         bool // false when the parameter is advisory-only
	BaselineRuntime time.Duration
	TunedRuntime    time.Duration
}

// Speedup returns baseline/tuned runtime (0 when not applied).
func (im Impact) Speedup() float64 {
	if !im.Applied || im.TunedRuntime == 0 {
		return 0
	}
	return float64(im.BaselineRuntime) / float64(im.TunedRuntime)
}

// Evaluate measures each recommendation independently: the workload runs
// once as the baseline, then once per applicable recommendation with only
// that change applied. Recommendations the simulator cannot enact
// (placement hints for external schedulers, persistence flags) are
// reported with Applied = false.
func Evaluate(w spec.Workload, sp workloads.Spec, recs []Recommendation) ([]Impact, error) {
	base, err := w.Run(sp)
	if err != nil {
		return nil, fmt.Errorf("advisor: baseline run: %w", err)
	}
	// Only runtimes are compared, so every run's events die unread.
	base.Trace.Release()
	impacts := make([]Impact, 0, len(recs))
	for _, r := range recs {
		im := Impact{Recommendation: r, BaselineRuntime: base.Runtime}
		tuned := sp
		if applied := Apply([]Recommendation{r}, &tuned); len(applied) == 1 {
			res, err := w.Run(tuned)
			if err != nil {
				return nil, fmt.Errorf("advisor: run with %s: %w", r.ID, err)
			}
			res.Trace.Release()
			im.Applied = true
			im.TunedRuntime = res.Runtime
		}
		impacts = append(impacts, im)
	}
	return impacts, nil
}
