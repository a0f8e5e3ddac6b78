//go:build amd64

package vec

// dot4x2SSE is the SSE inner loop (dot4x2_amd64.s): four queries against
// two rows of n floats, one 4-lane accumulator per (query, row) pair. n
// must be a positive multiple of 4.
//
//go:noescape
func dot4x2SSE(q0, q1, q2, q3, r0, r1 *float32, n int, out *[2][4]float32)

// dot4x2 scores four queries against two rows of len(q0) floats each,
// bitwise identical to eight Dot calls (see Dot4x2); widths that are not a
// multiple of 4 take the eight calls directly, as dot4 does.
func dot4x2(q0, q1, q2, q3, r0, r1 []float32, out *[2][4]float32) {
	n := len(q0)
	if n == 0 || n%4 != 0 {
		dot4x2Generic(q0, q1, q2, q3, r0, r1, out)
		return
	}
	dot4x2SSE(&q0[0], &q1[0], &q2[0], &q3[0], &r0[0], &r1[0], n, out)
}
