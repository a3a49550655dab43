package metrics

import "time"

// DurationStats summarises a set of wall-time samples in milliseconds —
// the per-op-class latency block of a replay's SLO report.
type DurationStats struct {
	N     int     `json:"n"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// SummarizeDurations computes nearest-rank percentiles over the samples
// (zero value for empty input).
func SummarizeDurations(ds []time.Duration) DurationStats {
	if len(ds) == 0 {
		return DurationStats{}
	}
	xs := make([]float64, len(ds))
	max := 0.0
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
		if xs[i] > max {
			max = xs[i]
		}
	}
	return DurationStats{
		N:     len(xs),
		P50MS: Percentile(xs, 50),
		P95MS: Percentile(xs, 95),
		P99MS: Percentile(xs, 99),
		MaxMS: max,
	}
}
