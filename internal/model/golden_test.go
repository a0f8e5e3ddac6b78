package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// TestQueryVectorGolden pins the bits of QueryVector: the sha256 of every
// query over layers × heads × steps × context lengths, written as
// little-endian float32 words. The context lengths include zero (no
// recency), lengths shorter than the recency span, and lengths past the end
// of the document, whose positions past the last token the recency pass
// skips without decaying its weight.
func TestQueryVectorGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden hash assumes unfused float32 multiply-add; GOARCH=%s may fuse", runtime.GOARCH)
	}
	m := testModel()
	const docLen = 20
	doc := NewFiller(91, docLen, 8, 32)
	doc.Plant(5, 3, 17, 0.6)
	h := sha256.New()
	var word [4]byte
	for l := 0; l < m.Config().Layers; l++ {
		for qh := 0; qh < m.Config().QHeads; qh++ {
			for _, step := range []int{0, 1, 6} {
				for _, n := range []int{0, 1, 3, 7, 8, 9, 14, docLen, docLen + 3, docLen + 8, docLen + 30} {
					spec := QuerySpec{FocusTopics: []int{step % 8, 3}, Step: step, ContextLen: n}
					for _, v := range m.QueryVector(doc, l, qh, spec) {
						binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
						h.Write(word[:])
					}
				}
			}
		}
	}
	const want = "8fcc3a0d8c1db59cbed5c0f919edffda3bac76a505924263f32c92513c686dc1"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("QueryVector hash %s, want %s", got, want)
	}
}
