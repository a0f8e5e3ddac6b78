package kvcache

import "testing"

func mk(t *testing.T) *Cache {
	t.Helper()
	return New(2, 2, 4)
}

func TestShape(t *testing.T) {
	c := mk(t)
	if c.Layers() != 2 || c.KVHeads() != 2 || c.HeadDim() != 4 {
		t.Fatalf("shape = %d/%d/%d", c.Layers(), c.KVHeads(), c.HeadDim())
	}
	if c.SeqLen(0) != 0 {
		t.Errorf("empty SeqLen = %d", c.SeqLen(0))
	}
}

func TestInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero layers")
		}
	}()
	New(0, 1, 4)
}

func TestAppendAndRead(t *testing.T) {
	c := mk(t)
	k := []float32{1, 2, 3, 4}
	v := []float32{5, 6, 7, 8}
	pos := c.Append(0, 1, k, v)
	if pos != 0 {
		t.Errorf("first pos = %d", pos)
	}
	if got := c.Keys(0, 1).Row(0)[3]; got != 4 {
		t.Errorf("key readback = %v", got)
	}
	if got := c.Values(0, 1).Row(0)[0]; got != 5 {
		t.Errorf("value readback = %v", got)
	}
	// Head 0 of the same layer is untouched.
	if c.Keys(0, 0).Rows() != 0 {
		t.Error("append leaked across heads")
	}
}

func TestAppendAll(t *testing.T) {
	c := mk(t)
	ks := [][]float32{{1, 1, 1, 1}, {2, 2, 2, 2}}
	vs := [][]float32{{3, 3, 3, 3}, {4, 4, 4, 4}}
	c.AppendAll(1, ks, vs)
	if c.SeqLen(1) != 1 {
		t.Fatalf("SeqLen = %d", c.SeqLen(1))
	}
	if c.Keys(1, 1).Row(0)[0] != 2 {
		t.Error("head-1 key wrong")
	}
}

func TestAppendAllWrongHeadsPanics(t *testing.T) {
	c := mk(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong head count")
		}
	}()
	c.AppendAll(0, [][]float32{{1, 1, 1, 1}}, [][]float32{{1, 1, 1, 1}})
}

func TestOutOfRangePanics(t *testing.T) {
	c := mk(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for layer out of range")
		}
	}()
	c.Keys(2, 0)
}

func TestBytes(t *testing.T) {
	c := mk(t)
	c.AppendAll(0, [][]float32{{1, 1, 1, 1}, {1, 1, 1, 1}}, [][]float32{{1, 1, 1, 1}, {1, 1, 1, 1}})
	// 2 heads * (K+V) * 4 floats * 4 bytes = 64.
	if got := c.Bytes(); got != 64 {
		t.Errorf("Bytes = %d, want 64", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := mk(t)
	c.AppendAll(0, [][]float32{{1, 1, 1, 1}, {1, 1, 1, 1}}, [][]float32{{1, 1, 1, 1}, {1, 1, 1, 1}})
	d := c.Clone()
	d.Keys(0, 0).Row(0)[0] = 99
	if c.Keys(0, 0).Row(0)[0] == 99 {
		t.Error("Clone shares storage")
	}
}

func TestTruncate(t *testing.T) {
	c := mk(t)
	for i := 0; i < 5; i++ {
		f := float32(i)
		row := []float32{f, f, f, f}
		c.AppendAll(0, [][]float32{row, row}, [][]float32{row, row})
		c.AppendAll(1, [][]float32{row, row}, [][]float32{row, row})
	}
	c.Truncate(3)
	for l := 0; l < 2; l++ {
		if got := c.SeqLen(l); got != 3 {
			t.Errorf("layer %d SeqLen after truncate = %d, want 3", l, got)
		}
	}
	if c.Keys(0, 0).Row(2)[0] != 2 {
		t.Error("truncate lost data")
	}
	// Truncating beyond length is a no-op.
	c.Truncate(10)
	if c.SeqLen(0) != 3 {
		t.Error("over-truncate changed length")
	}
}

func TestRowSpanAccessors(t *testing.T) {
	c := New(2, 2, 4)
	for pos := 0; pos < 3; pos++ {
		ks := [][]float32{{float32(pos), 1, 2, 3}, {float32(pos), 5, 6, 7}}
		vs := [][]float32{{float32(pos), -1, -2, -3}, {float32(pos), -5, -6, -7}}
		c.AppendAll(1, ks, vs)
	}
	span := c.Keys(1, 0).RowSpan(1, 3)
	if len(span) != 8 {
		t.Fatalf("key span length %d, want 8", len(span))
	}
	if span[0] != 1 || span[4] != 2 {
		t.Fatalf("key span contents wrong: %v", span)
	}
	// Spans alias cache storage exactly as the matrices do.
	if &span[0] != &c.Keys(1, 0).Row(1)[0] {
		t.Fatal("key span must alias the key matrix")
	}
	vspan := c.Values(1, 1).RowSpan(0, 3)
	if len(vspan) != 12 || vspan[1] != -5 {
		t.Fatalf("value span wrong: %v", vspan)
	}
	if got := len(c.Keys(1, 0).RowSpan(2, 2)); got != 0 {
		t.Fatalf("empty span length %d", got)
	}
}

func quantCache(t *testing.T) *Cache {
	t.Helper()
	c := New(2, 2, 8)
	for i := 0; i < 6; i++ {
		f := float32(i) + 0.37
		row := []float32{f, -f, f * 2, -f * 3, f / 2, f, -f, f * 1.5}
		c.AppendAll(0, [][]float32{row, row}, [][]float32{row, row})
	}
	c.EnableQuantKeys()
	return c
}

// TestEnableQuantKeysSnapsPlane checks the central invariant of SQ8 keys:
// after enabling, every fp32 key row equals the dequantized row of its
// codes exactly, for pre-existing rows and for rows appended afterwards.
func TestEnableQuantKeysSnapsPlane(t *testing.T) {
	c := quantCache(t)
	row := []float32{9.1, -3.3, 0.04, 7, -2, 1, 0, 5}
	c.AppendAll(0, [][]float32{row, row}, [][]float32{row, row})
	buf := make([]float32, c.HeadDim())
	for h := 0; h < c.KVHeads(); h++ {
		qm := c.QuantKeys(0, h)
		if qm == nil || qm.Rows() != c.SeqLen(0) {
			t.Fatalf("head %d: codes have %v rows, cache %d", h, qm, c.SeqLen(0))
		}
		for r := 0; r < qm.Rows(); r++ {
			qm.DequantizeRow(r, buf)
			for j, want := range buf {
				if got := c.Keys(0, h).Row(r)[j]; got != want {
					t.Fatalf("head %d row %d dim %d: fp32 %v != dequant %v", h, r, j, got, want)
				}
			}
		}
	}
	// Values are never quantized: the appended value row survives verbatim.
	if c.Values(0, 0).Row(6)[0] != 9.1 {
		t.Fatal("value row was mutated by the quantized plane")
	}
}

// TestQuantDisabledByDefault pins the fp32-only default: no codes, nil
// accessor, bitwise-untouched keys.
func TestQuantDisabledByDefault(t *testing.T) {
	c := mk(t)
	k := []float32{1.1, 2.2, 3.3, 4.4}
	c.Append(0, 0, k, k)
	if c.QuantEnabled() || c.QuantKeys(0, 0) != nil {
		t.Fatal("quantized plane enabled without EnableQuantKeys")
	}
	if got := c.Keys(0, 0).Row(0)[0]; got != 1.1 {
		t.Fatalf("fp32 key snapped without quant: %v", got)
	}
}

// TestBytesSplit covers the key/value footprint split: the SQ8 grid keeps
// no resident int8 plane, so QuantKeys stays zero.
func TestBytesSplit(t *testing.T) {
	c := quantCache(t)
	b := c.BytesSplit()
	if b.Keys == 0 || b.Values == 0 || b.QuantKeys != 0 {
		t.Fatalf("split %+v: want fp32 planes only", b)
	}
	if b.Keys != b.Values {
		t.Fatalf("key and value planes should match in this fixture: %+v", b)
	}
	if c.Bytes() != b.Total() {
		t.Fatalf("Bytes() %d != split total %d", c.Bytes(), b.Total())
	}
}

// TestQuantCloneTruncateAppendQuantized covers the maintenance paths with
// SQ8 keys on.
func TestQuantCloneTruncateAppendQuantized(t *testing.T) {
	c := quantCache(t)
	d := c.Clone()
	if !d.QuantEnabled() {
		t.Fatal("clone lost SQ8 keys")
	}
	d.Truncate(3)
	if d.QuantKeys(0, 0).Rows() != 3 || d.Keys(0, 0).Rows() != 3 {
		t.Fatalf("truncate left %d quant / %d fp32 rows", d.QuantKeys(0, 0).Rows(), d.Keys(0, 0).Rows())
	}
	if c.QuantKeys(0, 0).Rows() != 6 {
		t.Fatal("truncating the clone affected the original")
	}

	// AppendQuantized reproduces a row bit-exactly from codes + scale.
	src := c.QuantKeys(0, 0)
	e := New(1, 1, 8)
	e.EnableQuantKeys()
	val := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	e.AppendQuantized(0, 0, src.RowCodes(2), src.Scale(2), val)
	for j := range val {
		if e.Keys(0, 0).Row(0)[j] != c.Keys(0, 0).Row(2)[j] {
			t.Fatalf("dim %d: reloaded key %v != source %v", j, e.Keys(0, 0).Row(0)[j], c.Keys(0, 0).Row(2)[j])
		}
	}
	if e.SeqLen(0) != 1 || e.Values(0, 0).Row(0)[7] != 8 {
		t.Fatal("AppendQuantized mis-stored the value row")
	}
}
