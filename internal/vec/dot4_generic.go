//go:build !amd64

package vec

// dot4 scores q against four rows of len(q) floats each. The amd64 build
// replaces this with an SSE kernel (dot4_amd64.s) that is bitwise identical
// to the four Dot calls made here.
func dot4(q, r0, r1, r2, r3 []float32, out *[4]float32) {
	dot4Generic(q, r0, r1, r2, r3, out)
}

// dot4x2 scores four queries against two rows. The amd64 build replaces
// this with an SSE kernel (dot4x2_amd64.s) that is bitwise identical to the
// eight Dot calls made here.
func dot4x2(q0, q1, q2, q3, r0, r1 []float32, out *[2][4]float32) {
	dot4x2Generic(q0, q1, q2, q3, r0, r1, out)
}

// axpy4 accumulates four weighted rows into out. The amd64 build replaces
// this with an SSE kernel (axpy4_amd64.s) that is bitwise identical to the
// scalar loop run here.
func axpy4(w *[4]float32, r0, r1, r2, r3, out []float32) {
	axpy4Generic(w, r0, r1, r2, r3, out)
}
