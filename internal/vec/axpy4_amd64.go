//go:build amd64

package vec

// axpy4SSE is the SSE inner loop (axpy4_amd64.s): four weighted rows of n
// floats accumulated into out in one pass, each 4-float chunk of out loaded
// and stored once. n must be a positive multiple of 4.
//
//go:noescape
func axpy4SSE(w *[4]float32, r0, r1, r2, r3, out *float32, n int)

// axpy4 accumulates four weighted rows into out, bitwise identical to
// axpy4Generic and so to four Axpy calls: the kernel applies each row's
// multiply and add separately, in row order, per element. Widths that are
// not a multiple of 4 take axpy4Generic directly, as dot4 does.
func axpy4(w *[4]float32, r0, r1, r2, r3, out []float32) {
	n := len(out)
	if n == 0 || n%4 != 0 {
		axpy4Generic(w, r0, r1, r2, r3, out)
		return
	}
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	axpy4SSE(w, &r0[0], &r1[0], &r2[0], &r3[0], &out[0], n)
}
