package index

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestMinHeapPushBounded(t *testing.T) {
	var h MinHeap
	for _, s := range []float32{5, 1, 9, 3, 7, 2} {
		h.PushBounded(Candidate{ID: int32(s), Score: s}, 3)
	}
	if h.Len() != 3 {
		t.Fatalf("heap size = %d", h.Len())
	}
	got := h.Sorted()
	want := []float32{9, 7, 5}
	for i := range want {
		if got[i].Score != want[i] {
			t.Errorf("rank %d = %v, want %v", i, got[i].Score, want[i])
		}
	}
}

func TestPushBoundedZeroK(t *testing.T) {
	var h MinHeap
	h.PushBounded(Candidate{Score: 1}, 0)
	if h.Len() != 0 {
		t.Errorf("heap grew with k=0")
	}
}

func TestSortedDrainsHeap(t *testing.T) {
	var h MinHeap
	h.PushBounded(Candidate{Score: 1}, 5)
	h.PushBounded(Candidate{Score: 2}, 5)
	_ = h.Sorted()
	if h.Len() != 0 {
		t.Errorf("heap not drained: %d", h.Len())
	}
}

func TestMinHeapKeepsTopK(t *testing.T) {
	// Property: PushBounded retains exactly the k largest scores.
	f := func(raw []int16, kRaw uint8) bool {
		k := int(kRaw)%10 + 1
		var h MinHeap
		for i, r := range raw {
			h.PushBounded(Candidate{ID: int32(i), Score: float32(r)}, k)
		}
		got := h.Sorted()
		// Reference: sort all descending.
		ref := append([]int16(nil), raw...)
		for i := 0; i < len(ref); i++ {
			for j := i + 1; j < len(ref); j++ {
				if ref[j] > ref[i] {
					ref[i], ref[j] = ref[j], ref[i]
				}
			}
		}
		want := k
		if len(raw) < k {
			want = len(raw)
		}
		if len(got) != want {
			return false
		}
		for i := range got {
			if got[i].Score != float32(ref[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMaxHeapOrdering(t *testing.T) {
	h := &MaxHeap{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		heap.Push(h, Candidate{ID: int32(i), Score: rng.Float32()})
	}
	prev := float32(2)
	for h.Len() > 0 {
		c := heap.Pop(h).(Candidate)
		if c.Score > prev {
			t.Fatalf("max-heap popped out of order: %v after %v", c.Score, prev)
		}
		prev = c.Score
	}
}

func TestIDs(t *testing.T) {
	got := IDs([]Candidate{{ID: 3}, {ID: 1}, {ID: 4}})
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 4 {
		t.Errorf("IDs = %v", got)
	}
	if got := IDs(nil); len(got) != 0 {
		t.Errorf("IDs(nil) = %v", got)
	}
}

// TestScoreMatchesDot pins Score for candidate counts 0–9, so every 1–3
// row tail's padded Dot4 pass runs: each score is vec.Dot's bit for bit,
// and candidates past the list are never touched.
func TestScoreMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const d = 12
	rows := make([][]float32, 30)
	for i := range rows {
		rows[i] = make([]float32, d)
		for j := range rows[i] {
			rows[i][j] = rng.Float32()*2 - 1
		}
	}
	q := rows[0]
	row := func(id int32) []float32 { return rows[id] }
	for n := 0; n <= 9; n++ {
		cs := make([]Candidate, n+1)
		for i := range cs {
			cs[i] = Candidate{ID: int32(rng.Intn(len(rows))), Score: 12345}
		}
		Score(q, row, cs[:n])
		for i, c := range cs[:n] {
			if want := vec.Dot(q, rows[c.ID]); math.Float32bits(c.Score) != math.Float32bits(want) {
				t.Fatalf("n=%d candidate %d: %v, Dot = %v", n, i, c.Score, want)
			}
		}
		if cs[n].Score != 12345 {
			t.Fatalf("n=%d: Score wrote past the list", n)
		}
	}
}
