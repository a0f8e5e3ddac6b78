// Package metrics implements the measurement vocabulary of the paper's
// evaluation (§9): latency recorders with percentiles, the TPOT
// service-level objective (human reading speed), and task-accuracy
// scores.
package metrics

import (
	"fmt"
	"sort"
	"time"
)

// HumanReadingSLO is the paper's TPOT service-level objective: 0.24 s per
// output token, the reading speed of a human [70].
const HumanReadingSLO = 240 * time.Millisecond

// Latency accumulates duration samples. The zero value is ready to use.
type Latency struct {
	samples []time.Duration
	sorted  bool
}

// Record adds a sample.
func (l *Latency) Record(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Count returns the number of samples.
func (l *Latency) Count() int { return len(l.samples) }

func (l *Latency) sort() {
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank, or 0 with no samples.
func (l *Latency) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	rank := int(p/100*float64(len(l.samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(l.samples) {
		rank = len(l.samples) - 1
	}
	return l.samples[rank]
}

// Mean returns the arithmetic mean, or 0 with no samples.
func (l *Latency) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

// Max returns the largest sample, or 0 with no samples.
func (l *Latency) Max() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	return l.samples[len(l.samples)-1]
}

// String formats the distribution compactly.
func (l *Latency) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v max=%v",
		l.Count(), l.Mean(), l.Percentile(50), l.Percentile(95), l.Max())
}

// Quality accumulates per-instance task outcomes.
type Quality struct {
	total   int
	correct int
}

// Record adds one instance: whether the decoded answer was correct.
func (q *Quality) Record(correct bool) {
	q.total++
	if correct {
		q.correct++
	}
}

// Count returns the number of recorded instances.
func (q *Quality) Count() int { return q.total }

// Accuracy returns the fraction of correct answers, scaled to 0–100 like
// the benchmark scores in Table 5.
func (q *Quality) Accuracy() float64 {
	if q.total == 0 {
		return 0
	}
	return 100 * float64(q.correct) / float64(q.total)
}
