package tensor

// Cache-blocked (tiled) matmul kernels. The naive i-k-j loops in ops.go
// stream the full B operand through cache once per output row — at
// 256×256 float64 that is a 512 KiB panel re-read 256 times. The blocked
// kernels below partition B into kb×nb tiles small enough to stay
// resident across the whole row sweep, so B is read from memory once per
// full product instead of once per row, and unroll the k loop 4-wide for
// instruction-level parallelism.
//
// Dispatch: the public MatMul/MatMulTransA/MatMulTransB switch to the
// blocked kernels when the multiply-add count reaches blockedThreshold,
// and keep the original zero-skipping naive loops below it, where tiling
// overhead and the lost sparsity skip would cost more than the cache
// behaviour buys. The convolution lowering (conv.go) always uses the
// blocked kernels below, whose per-element accumulation order is fixed by
// the inner dimension alone, so any split of its rows or columns across
// goroutines is bitwise equal to the serial whole.
const (
	// blockedThreshold is the m*k*n volume above which the tiled kernels
	// win over the naive loops (64³ — matrices about one L2 cache big).
	blockedThreshold = 1 << 18
	// blockK × blockN is the B tile: 64×256 float64 = 128 KiB, sized for
	// L2 residency while the row sweep streams A past it.
	blockK = 64
	blockN = 256
)

// matMulRange computes output rows [lo,hi) of the (m×k)·(k×n) product.
// The kernel choice depends only on the full problem size, and both
// kernels accumulate each output element in an order fixed by (k, n).
func matMulRange(a, b, out []float64, m, k, n, lo, hi int) {
	if m*k*n >= blockedThreshold && k >= 4 {
		gemmAcc(a, k, b, n, out, n, k, lo, hi, 0, n)
		return
	}
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matMulTransBRange computes output rows [lo,hi) of a·bᵀ for a (m×k),
// b (n×k). Both kernels compute every dot product via dotUnrolled.
func matMulTransBRange(a, b, out []float64, m, k, n, lo, hi int) {
	if m*k*n >= blockedThreshold {
		matMulTransBRowsBlocked(a, b, out, k, n, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			orow[j] = dotUnrolled(arow, b[j*k:(j+1)*k])
		}
	}
}

// matMulTransBRowsBlocked tiles the rows of B into panels that stay
// cache-resident while every output row sweeps them: B is read once per
// product instead of once per output row.
func matMulTransBRowsBlocked(a, b, out []float64, k, n, lo, hi int) {
	// Panel of B rows: blockN rows × k cols each. Cap panel footprint at
	// blockK*blockN elements so long-k operands still tile.
	rows := blockN
	if k > 0 {
		if r := (blockK * blockN) / k; r < rows {
			rows = r
		}
	}
	if rows < 1 {
		rows = 1
	}
	for jc := 0; jc < n; jc += rows {
		jmax := jc + rows
		if jmax > n {
			jmax = n
		}
		for i := lo; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			orow := out[i*n : (i+1)*n]
			for j := jc; j < jmax; j++ {
				orow[j] = dotUnrolled(arow, b[j*k:(j+1)*k])
			}
		}
	}
}

// dotUnrolled is the shared 4-accumulator dot product; one definition so
// the blocked and naive TransB paths round identically.
func dotUnrolled(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	kk := 0
	for ; kk+4 <= len(x); kk += 4 {
		s0 += x[kk] * y[kk]
		s1 += x[kk+1] * y[kk+1]
		s2 += x[kk+2] * y[kk+2]
		s3 += x[kk+3] * y[kk+3]
	}
	s := s0 + s1 + s2 + s3
	for ; kk < len(x); kk++ {
		s += x[kk] * y[kk]
	}
	return s
}

// matMulTransACols computes columns [lo:hi) of aᵀ·b for a (k×m), b (k×n):
// rank-1 updates tiled so the out panel under update stays cache-resident
// across the full k sweep instead of being streamed k times. Accumulation
// order per output element is ascending k in both the tiled and naive
// paths.
func matMulTransACols(a, b, out []float64, k, m, n, lo, hi int) {
	if k*(hi-lo)*n < blockedThreshold {
		for kk := 0; kk < k; kk++ {
			arow := a[kk*m+lo : kk*m+hi]
			brow := b[kk*n : (kk+1)*n]
			for i, av := range arow {
				if av == 0 {
					continue
				}
				orow := out[(lo+i)*n : (lo+i+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
		return
	}
	// Tile the output: blockK rows × blockN cols of out stay hot while
	// the k loop streams the matching A and B column panels once.
	for ic := lo; ic < hi; ic += blockK {
		imax := ic + blockK
		if imax > hi {
			imax = hi
		}
		for jc := 0; jc < n; jc += blockN {
			jmax := jc + blockN
			if jmax > n {
				jmax = n
			}
			for kk := 0; kk < k; kk++ {
				arow := a[kk*m+ic : kk*m+imax]
				brow := b[kk*n+jc : kk*n+jmax]
				for i, av := range arow {
					if av == 0 {
						continue
					}
					orow := out[(ic+i)*n+jc : (ic+i)*n+jmax]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}

// gemmAcc accumulates out[i][j] += Σ_kk a[i][kk]·b[kk][j] over rows
// [i0,i1) and columns [j0,j1), where a, b and out are row-major with row
// strides lda, ldb and ldo and the inner dimension is k. It is the tiled
// i-k-j kernel shaped for the convolution lowering's short, wide
// products: two output rows share every load of B, and each output
// element takes its k terms four at a time within each blockK tile — an
// order fixed by k alone, so any split of the rows or columns across
// callers gives bitwise the same result.
func gemmAcc(a []float64, lda int, b []float64, ldb int, out []float64, ldo, k, i0, i1, j0, j1 int) {
	for kc := 0; kc < k; kc += blockK {
		kmax := min(kc+blockK, k)
		for jc := j0; jc < j1; jc += blockN {
			w := min(jc+blockN, j1) - jc
			i := i0
			for ; i+2 <= i1; i += 2 {
				gemmRows2(a[i*lda:], a[(i+1)*lda:], b[jc:], ldb, out[i*ldo+jc:][:w], out[(i+1)*ldo+jc:][:w], kc, kmax)
			}
			if i < i1 {
				gemmRow1(a[i*lda:], b[jc:], ldb, out[i*ldo+jc:][:w], kc, kmax)
			}
		}
	}
}

// gemmRows2 adds the k terms [kc,kmax) of two output row segments. b is
// offset to the segment's first column.
func gemmRows2(a0, a1, b []float64, ldb int, o0, o1 []float64, kc, kmax int) {
	w := len(o0)
	o1 = o1[:w]
	kk := kc
	for ; kk+4 <= kmax; kk += 4 {
		p0, p1, p2, p3 := a0[kk], a0[kk+1], a0[kk+2], a0[kk+3]
		q0, q1, q2, q3 := a1[kk], a1[kk+1], a1[kk+2], a1[kk+3]
		b0 := b[kk*ldb:][:w]
		b1 := b[(kk+1)*ldb:][:w]
		b2 := b[(kk+2)*ldb:][:w]
		b3 := b[(kk+3)*ldb:][:w]
		for j := range o0 {
			x0, x1, x2, x3 := b0[j], b1[j], b2[j], b3[j]
			o0[j] += p0*x0 + p1*x1 + p2*x2 + p3*x3
			o1[j] += q0*x0 + q1*x1 + q2*x2 + q3*x3
		}
	}
	for ; kk < kmax; kk++ {
		p, q := a0[kk], a1[kk]
		for j, x := range b[kk*ldb:][:w] {
			o0[j] += p * x
			o1[j] += q * x
		}
	}
}

// gemmRow1 is gemmRows2 for a single row, with the same per-element
// arithmetic.
func gemmRow1(a0, b []float64, ldb int, o0 []float64, kc, kmax int) {
	w := len(o0)
	kk := kc
	for ; kk+4 <= kmax; kk += 4 {
		p0, p1, p2, p3 := a0[kk], a0[kk+1], a0[kk+2], a0[kk+3]
		b0 := b[kk*ldb:][:w]
		b1 := b[(kk+1)*ldb:][:w]
		b2 := b[(kk+2)*ldb:][:w]
		b3 := b[(kk+3)*ldb:][:w]
		for j := range o0 {
			o0[j] += p0*b0[j] + p1*b1[j] + p2*b2[j] + p3*b3[j]
		}
	}
	for ; kk < kmax; kk++ {
		p := a0[kk]
		for j, x := range b[kk*ldb:][:w] {
			o0[j] += p * x
		}
	}
}

// dotChunk is the column tile of dotRowsAcc: a dotChunk-wide panel of
// every y row stays cache-resident while the x rows sweep it.
const dotChunk = 512

// dotRowsAcc accumulates out[i][kk] += Σ_j x[i][j]·y[kk][j] for rows
// [i0,i1) of x (row length n) and all k rows of y (row length n): the
// product x·yᵀ taken as long dots. Each dot is summed dotChunk columns
// at a time into out, so an element's accumulation order is fixed by n
// alone; i0 must be even so rows pair up the same way under any split.
func dotRowsAcc(x, y, out []float64, n, k, i0, i1 int) {
	for jc := 0; jc < n; jc += dotChunk {
		jm := min(jc+dotChunk, n)
		i := i0
		for ; i+2 <= i1; i += 2 {
			x0, x1 := x[i*n+jc:i*n+jm], x[(i+1)*n+jc:(i+1)*n+jm]
			o0, o1 := out[i*k:(i+1)*k], out[(i+1)*k:(i+2)*k]
			for kk := range o0 {
				s0, s1 := dot2(x0, x1, y[kk*n+jc:kk*n+jm])
				o0[kk] += s0
				o1[kk] += s1
			}
		}
		if i < i1 {
			x0, o0 := x[i*n+jc:i*n+jm], out[i*k:(i+1)*k]
			for kk := range o0 {
				o0[kk] += dotUnrolled(x0, y[kk*n+jc:kk*n+jm])
			}
		}
	}
}

// dot2 returns the dots of x0 and x1 with y, each rounded exactly as
// dotUnrolled rounds it; the two share every load of y.
func dot2(x0, x1, y []float64) (float64, float64) {
	x0, x1 = x0[:len(y)], x1[:len(y)]
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	j := 0
	for ; j+4 <= len(y); j += 4 {
		y0, y1, y2, y3 := y[j], y[j+1], y[j+2], y[j+3]
		s0 += x0[j] * y0
		s1 += x0[j+1] * y1
		s2 += x0[j+2] * y2
		s3 += x0[j+3] * y3
		t0 += x1[j] * y0
		t1 += x1[j+1] * y1
		t2 += x1[j+2] * y2
		t3 += x1[j+3] * y3
	}
	s, t := s0+s1+s2+s3, t0+t1+t2+t3
	for ; j < len(y); j++ {
		s += x0[j] * y[j]
		t += x1[j] * y[j]
	}
	return s, t
}
