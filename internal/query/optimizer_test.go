package query

import "testing"

func TestOptimizeRuleTree(t *testing.T) {
	const gb = int64(1) << 30
	tests := []struct {
		name string
		req  Request
		want Plan
	}{
		{
			"short context uses full attention",
			Request{ContextLen: 1000},
			Plan{Query: KindFull, Index: IndexNone},
		},
		{
			"short context ignores budget and layer",
			Request{ContextLen: 100, DeviceFree: 100 * gb, Layer: 5},
			Plan{Query: KindFull, Index: IndexNone},
		},
		{
			"long context with ample device still plans DIPR",
			Request{ContextLen: 100_000, DeviceFree: 40 * gb, CoarseNeed: 10 * gb},
			Plan{Query: KindDIPR, Index: IndexFlat},
		},
		{
			"long context with tight budget uses DIPR+fine",
			Request{ContextLen: 100_000, DeviceFree: gb, CoarseNeed: 10 * gb, Layer: 3},
			Plan{Query: KindDIPR, Index: IndexFine},
		},
		{
			"first layer uses DIPR+flat",
			Request{ContextLen: 100_000, DeviceFree: gb, CoarseNeed: 10 * gb, Layer: 0},
			Plan{Query: KindDIPR, Index: IndexFlat},
		},
		{
			"partial reuse adds filtering and skips coarse",
			Request{ContextLen: 100_000, PartialReuse: true, DeviceFree: 40 * gb, CoarseNeed: 10 * gb, Layer: 2},
			Plan{Query: KindDIPR, Index: IndexFine, Filtered: true},
		},
		{
			"partial reuse on first layer filters the flat scan",
			Request{ContextLen: 100_000, PartialReuse: true, Layer: 0},
			Plan{Query: KindDIPR, Index: IndexFlat, Filtered: true},
		},
		{
			"custom threshold respected",
			Request{ContextLen: 3000, LongThreshold: 2048, Layer: 1},
			Plan{Query: KindDIPR, Index: IndexFine},
		},
		{
			"boundary: exactly at threshold is long",
			Request{ContextLen: 4096, Layer: 1},
			Plan{Query: KindDIPR, Index: IndexFine},
		},
		{
			"zero CoarseNeed never selects coarse",
			Request{ContextLen: 100_000, DeviceFree: 40 * gb, CoarseNeed: 0, Layer: 1},
			Plan{Query: KindDIPR, Index: IndexFine},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Optimize(tt.req); got != tt.want {
				t.Errorf("Optimize(%+v) = %v, want %v", tt.req, got, tt.want)
			}
		})
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Query: KindDIPR, Index: IndexFine, Filtered: true}
	if got := p.String(); got != "dipr+fine+filter" {
		t.Errorf("String = %q", got)
	}
	p2 := Plan{Query: KindFull, Index: IndexNone}
	if got := p2.String(); got != "full+none" {
		t.Errorf("String = %q", got)
	}
}

func TestKindStrings(t *testing.T) {
	if KindFull.String() != "full" || KindDIPR.String() != "dipr" {
		t.Error("Kind names wrong")
	}
	if IndexNone.String() != "none" || IndexFine.String() != "fine" || IndexFlat.String() != "flat" {
		t.Error("IndexKind names wrong")
	}
	if Kind(99).String() == "" || IndexKind(99).String() == "" {
		t.Error("unknown kinds should stringify")
	}
}
