//go:build amd64

package vec

// dot4SSE is the SSE inner loop (dot4_amd64.s): one query against four rows
// of n floats, one 4-lane accumulator per row. n must be a positive multiple
// of 4.
//
//go:noescape
func dot4SSE(q, r0, r1, r2, r3 *float32, n int, out *[4]float32)

// dot4 scores q against four rows of len(q) floats each. SSE is part of the
// amd64 baseline, so no feature detection is needed. The kernel mirrors
// Dot's four scalar accumulators lane for lane, so the result is bitwise
// identical to four Dot calls (see Dot4); widths that are not a multiple of
// 4, whose tail Dot folds into s0 alone, take the four calls directly.
func dot4(q, r0, r1, r2, r3 []float32, out *[4]float32) {
	n := len(q)
	if n == 0 || n%4 != 0 {
		dot4Generic(q, r0, r1, r2, r3, out)
		return
	}
	dot4SSE(&q[0], &r0[0], &r1[0], &r2[0], &r3[0], n, out)
}
