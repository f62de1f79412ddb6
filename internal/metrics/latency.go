package metrics

import (
	"fmt"
	"time"

	"turbo/internal/telemetry"
)

// Summary is the §V percentile digest (p50/p99/p999) used by the
// online modules' latency reports and Fig. 8a.
type Summary struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	P999  time.Duration
}

// SummarizeLog computes the digest of a log-bucketed histogram from one
// snapshot. Each percentile is the upper bound of its bucket, so it
// reads at most one bucket width (≈6%) above the exact order statistic.
func SummarizeLog(h *telemetry.LogHistogram) Summary {
	s := h.Snapshot()
	return Summary{
		Count: int(s.Count()),
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
	}
}

// String renders the digest in the §V style.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p999=%v", s.Count, s.Mean, s.P50, s.P99, s.P999)
}
