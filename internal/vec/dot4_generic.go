//go:build !amd64

package vec

// dot4 scores q against four rows of len(q) floats each. The amd64 build
// replaces this with an SSE kernel (dot4_amd64.s) that is bitwise identical
// to the four Dot calls made here.
func dot4(q, r0, r1, r2, r3 []float32, out *[4]float32) {
	dot4Generic(q, r0, r1, r2, r3, out)
}
