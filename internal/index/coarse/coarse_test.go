package coarse

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vec"
)

func randomKeys(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Row(i)[j] = rng.Float32()*2 - 1
		}
	}
	return m
}

func TestBlockPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := New(randomKeys(rng, 10, 4), 4, Mean)
	if x.Blocks() != 3 {
		t.Fatalf("Blocks = %d, want 3", x.Blocks())
	}
	lo, hi := x.BlockTokens(2)
	if lo != 8 || hi != 10 {
		t.Errorf("last block = [%d,%d), want [8,10)", lo, hi)
	}
	if x.Len() != 10 {
		t.Errorf("Len = %d", x.Len())
	}
	if x.BlockSize() != 4 {
		t.Errorf("BlockSize = %d", x.BlockSize())
	}
}

func TestZeroBlockSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for blockSize 0")
		}
	}()
	New(vec.NewMatrix(4, 2), 0, Mean)
}

func TestMeanRepresentative(t *testing.T) {
	keys := vec.NewMatrix(4, 2)
	keys.SetRow(0, []float32{1, 0})
	keys.SetRow(1, []float32{3, 0})
	keys.SetRow(2, []float32{0, 2})
	keys.SetRow(3, []float32{0, 4})
	x := New(keys, 2, Mean)
	// Block 0 mean = (2, 0); block 1 mean = (0, 3).
	q := []float32{1, 0}
	if got := x.BlockScore(q, 0); got != 2 {
		t.Errorf("block 0 mean score = %v, want 2", got)
	}
	if got := x.BlockScore(q, 1); got != 0 {
		t.Errorf("block 1 mean score = %v, want 0", got)
	}
}

func TestBoundNeverUnderestimates(t *testing.T) {
	// Property: the Quest bound >= every token's true score in the block.
	rng := rand.New(rand.NewSource(2))
	keys := randomKeys(rng, 128, 8)
	x := New(keys, 16, Bound)
	for trial := 0; trial < 50; trial++ {
		q := make([]float32, 8)
		for j := range q {
			q[j] = rng.Float32()*4 - 2
		}
		for b := 0; b < x.Blocks(); b++ {
			bound := x.BlockScore(q, b)
			lo, hi := x.BlockTokens(b)
			for i := lo; i < hi; i++ {
				if s := vec.Dot(q, keys.Row(i)); s > bound+1e-4 {
					t.Fatalf("trial %d: token %d score %v exceeds block %d bound %v", trial, i, s, b, bound)
				}
			}
		}
	}
}

func TestSelectBlocksOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := randomKeys(rng, 96, 8)
	x := New(keys, 8, Mean)
	q := make([]float32, 8)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	got := x.SelectBlocks(q, 5)
	if len(got) != 5 {
		t.Fatalf("SelectBlocks returned %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if x.BlockScore(q, got[i-1]) < x.BlockScore(q, got[i]) {
			t.Errorf("blocks not best-first at %d", i)
		}
	}
	if got := x.SelectBlocks(q, 0); got != nil {
		t.Errorf("SelectBlocks(0) = %v", got)
	}
	if got := x.SelectBlocks(q, 100); len(got) != x.Blocks() {
		t.Errorf("SelectBlocks(>nb) = %d blocks", len(got))
	}
}

func TestSelectTokensCoversBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := randomKeys(rng, 100, 8)
	x := New(keys, 10, Mean)
	q := make([]float32, 8)
	got := x.SelectTokens(q, 25)
	if len(got) < 25 || len(got) > 30 {
		t.Errorf("SelectTokens(25) returned %d tokens", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("bad or duplicate token %d", i)
		}
		seen[i] = true
	}
	if got := x.SelectTokens(q, 0); got != nil {
		t.Errorf("SelectTokens(0) = %v", got)
	}
}

func TestTopKFindsPlantedNeedle(t *testing.T) {
	// A needle strongly aligned with q must surface through block selection.
	rng := rand.New(rand.NewSource(5))
	keys := randomKeys(rng, 256, 8)
	q := make([]float32, 8)
	for j := range q {
		q[j] = rng.Float32()
	}
	needle := 171
	row := keys.Row(needle)
	for j := range row {
		row[j] = q[j] * 10
	}
	for _, mode := range []ScoreMode{Mean, Bound} {
		x := New(keys, 16, mode)
		got := x.TopK(q, 5)
		if len(got) != 5 {
			t.Fatalf("mode %v: TopK returned %d", mode, len(got))
		}
		if got[0].ID != int32(needle) {
			t.Errorf("mode %v: top candidate = %d, want needle %d", mode, got[0].ID, needle)
		}
	}
}

func TestTopKWithinSelectedBlocksIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := randomKeys(rng, 64, 8)
	x := New(keys, 8, Mean)
	q := make([]float32, 8)
	for j := range q {
		q[j] = rng.Float32()*2 - 1
	}
	got := x.TopK(q, 64) // k = n: all blocks selected, must equal exact ranking
	all := make([]struct {
		id    int
		score float32
	}, 64)
	for i := 0; i < 64; i++ {
		all[i].id = i
		all[i].score = vec.Dot(q, keys.Row(i))
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	for i := range got {
		if got[i].Score != all[i].score {
			t.Fatalf("rank %d: %v != %v", i, got[i].Score, all[i].score)
		}
	}
	if got := x.TopK(q, 0); got != nil {
		t.Errorf("TopK(0) = %v", got)
	}
}

func TestMemoryAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := randomKeys(rng, 100, 8)
	x := New(keys, 10, Mean)
	// 10 blocks * 3 representatives * 8 dims * 4 bytes.
	if got := x.RepresentativeBytes(); got != 10*3*8*4 {
		t.Errorf("RepresentativeBytes = %d", got)
	}
}
