package metrics

import (
	"testing"
	"time"
)

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	if l.Percentile(50) != 0 || l.Mean() != 0 || l.Max() != 0 {
		t.Error("empty latency not zero")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	var l Latency
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	if got := l.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := l.Percentile(95); got != 95*time.Millisecond {
		t.Errorf("p95 = %v", got)
	}
	if got := l.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	if got := l.Max(); got != 100*time.Millisecond {
		t.Errorf("max = %v", got)
	}
	if got := l.Mean(); got != 50500*time.Microsecond {
		t.Errorf("mean = %v", got)
	}
}

func TestRecordAfterSortedRead(t *testing.T) {
	var l Latency
	l.Record(5 * time.Millisecond)
	_ = l.Percentile(50)
	l.Record(1 * time.Millisecond)
	if got := l.Percentile(1); got != time.Millisecond {
		t.Errorf("p1 after late record = %v", got)
	}
}

func TestLatencyString(t *testing.T) {
	var l Latency
	l.Record(time.Millisecond)
	if s := l.String(); s == "" {
		t.Error("empty string")
	}
}

func TestQuality(t *testing.T) {
	var q Quality
	if q.Accuracy() != 0 {
		t.Error("empty quality not zero")
	}
	q.Record(true)
	q.Record(false)
	q.Record(true)
	q.Record(true)
	if q.Count() != 4 {
		t.Errorf("count = %d", q.Count())
	}
	if got := q.Accuracy(); got != 75 {
		t.Errorf("accuracy = %v", got)
	}
}
