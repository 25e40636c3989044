// Package pack implements the Knights Corner-friendly matrix layout of
// Section III-A3 of the paper, with real data movement.
//
// Before an outer product C += Ai·Bi, the paper packs:
//
//   - Ai (M×k) into block row-major tiles of TileM×k, each tile stored
//     column-major (Figure 3a; TileM is 30 for Basic Kernel 2, 31 for
//     Basic Kernel 1). Column-major tiles give the micro-kernel contiguous
//     access to each column of a and simple prefetch address arithmetic.
//   - Bi (k×N) into tiles of k×TileN (TileN = 8, the vector width), each
//     tile stored row-major (Figure 3b), so an 8-element row of b is one
//     aligned vector load.
//
// Small tile leading dimensions avoid the TLB pressure and cache-
// associativity conflicts of large-leading-dimension source matrices.
// The packing cost is quadratic and is amortized by the cubic multiply;
// internal/perfmodel accounts its bandwidth cost for Figure 4.
//
// Packing and the tile grid are written once over the element type; the
// tile geometry is a function of it (30×8 for float64, 32×16 for float32)
// and the two micro-kernels are the per-type leaves (DESIGN.md §16).
package pack

import (
	"os"

	"phihpl/internal/matrix"
	"phihpl/internal/pool"
)

// DefaultTileM is the a-tile height of Basic Kernel 2 (30 rows blocked in
// registers, leaving one register for the broadcast of a and one for b).
const DefaultTileM = 30

// KernelOneTileM is the a-tile height of Basic Kernel 1 (31 rows, all but
// one register).
const KernelOneTileM = 31

// TileN is the b-tile width: 8 doubles, one 512-bit vector register.
const TileN = 8

// MicroM is the row height of the FP64 vector register block: a 6×8
// accumulator block is 12 YMM registers (two 4-lane halves per row),
// leaving two for the b row and two for broadcasts of a. DefaultTileM is
// a multiple of MicroM (30 = 5·6), so the vector kernel walks a
// full-height a-tile without ever straddling the tile boundary; padding
// rows of a partial bottom tile are zero and are simply not written back.
const MicroM = 6

// DisableVectorKernel forces the portable scalar FP64 micro-kernel even
// when the AVX2+FMA block kernel is available. The scalar kernel is the
// arithmetic reference (unfused multiply-add in the same ascending-p
// order); tests set this to pin the cross-kernel oracle, and the
// benchmark harness toggles it for the scalar-vs-vector head-to-head. It
// is not safe to change concurrently with running kernels.
var DisableVectorKernel = false

// vectorKernel records the one-time CPUID probe for the AVX2+FMA kernel.
var vectorKernel = haveAsmKernel()

// VectorKernel reports whether the fused vector FP64 kernel is available
// on this CPU (and OS). When false, MicroKernel always runs the scalar
// fallback.
func VectorKernel() bool { return vectorKernel }

// UseVector reports whether the FP64 assembly kernels are dispatched right
// now: the probe passed and DisableVectorKernel is unset. It is the one
// predicate MicroKernel and the level-1 primitive of internal/blas
// consult, so the scalar-oracle legs (PHIHPL_DISABLE_VECTOR_KERNEL, the
// noasm tag) switch every assembly path off together.
func UseVector() bool { return vectorKernel && !DisableVectorKernel }

// The scalar oracle path must stay exercisable without recompiling:
// setting PHIHPL_DISABLE_VECTOR_KERNEL (to any non-empty value) disables
// both vector kernels at startup, which is how the CI scalar-oracle leg
// runs the full blas/pack/lu race suites on the pure-Go arithmetic.
func init() {
	if os.Getenv("PHIHPL_DISABLE_VECTOR_KERNEL") != "" {
		DisableVectorKernel = true
		DisableVectorKernel32 = true
	}
}

// TileNOf is the b-tile width of T, its vector width: TileN or TileN32.
// Like DefaultTileMOf it folds to a constant in each instantiation.
func TileNOf[T matrix.Float]() int {
	if matrix.Is64[T]() {
		return TileN
	}
	return TileN32
}

// DefaultTileMOf is the a-tile height of T: DefaultTileM or
// DefaultTileM32, each a multiple of its register block's height.
func DefaultTileMOf[T matrix.Float]() int {
	if matrix.Is64[T]() {
		return DefaultTileM
	}
	return DefaultTileM32
}

// AOf is matrix Ai packed into TileM×K column-major tiles. Partial bottom
// tiles are zero-padded to full height so that tile addressing is uniform.
type AOf[T matrix.Float] struct {
	M, K  int
	TileM int
	Data  []T // len = Tiles()*TileM*K
}

// A and B are the float64 packed operands.
type (
	A = AOf[float64]
	B = BOf[float64]
)

// Tiles returns the number of row tiles.
func (p *AOf[T]) Tiles() int { return (p.M + p.TileM - 1) / p.TileM }

// Tile returns the backing slice of tile t (TileM*K values, column-major:
// element (i,p) at [p*TileM+i]).
func (p *AOf[T]) Tile(t int) []T {
	sz := p.TileM * p.K
	return p.Data[t*sz : (t+1)*sz]
}

// TileRows returns how many rows of tile t are real (unpadded).
func (p *AOf[T]) TileRows(t int) int { return min(p.M-t*p.TileM, p.TileM) }

// PackA packs the M×K matrix a into TileM-row column-major tiles; tileM
// below 1 selects the default height of T.
func PackA[T matrix.Float](a *matrix.Of[T], tileM int) *AOf[T] {
	if tileM < 1 {
		tileM = DefaultTileMOf[T]()
	}
	p := &AOf[T]{M: a.Rows, K: a.Cols, TileM: tileM}
	p.Data = make([]T, p.Tiles()*tileM*a.Cols)
	for t := 0; t < p.Tiles(); t++ {
		PackATileOp(p, a, false, 1, 0, t)
	}
	return p
}

// Unpack writes the packed contents back into dst (M×K), dropping padding.
func (p *AOf[T]) Unpack(dst *matrix.Of[T]) {
	if dst.Rows != p.M || dst.Cols != p.K {
		panic("pack: A.Unpack dimension mismatch")
	}
	for t := 0; t < p.Tiles(); t++ {
		tile := p.Tile(t)
		rows := p.TileRows(t)
		base := t * p.TileM
		for i := 0; i < rows; i++ {
			row := dst.Row(base + i)
			for k := range row {
				row[k] = tile[k*p.TileM+i]
			}
		}
	}
}

// BOf is matrix Bi packed into K×TileN row-major tiles, TileN being the
// vector width of T. Partial right tiles are zero-padded to full width.
type BOf[T matrix.Float] struct {
	K, N int
	Data []T // len = Tiles()*K*TileN
}

// Tiles returns the number of column tiles.
func (p *BOf[T]) Tiles() int { return (p.N + TileNOf[T]() - 1) / TileNOf[T]() }

// Tile returns the backing slice of tile t (K*TileN values, row-major:
// element (k,j) at [k*TileN+j]).
func (p *BOf[T]) Tile(t int) []T {
	sz := p.K * TileNOf[T]()
	return p.Data[t*sz : (t+1)*sz]
}

// TileCols returns how many columns of tile t are real.
func (p *BOf[T]) TileCols(t int) int { return min(p.N-t*TileNOf[T](), TileNOf[T]()) }

// PackB packs the K×N matrix b into TileN-column row-major tiles.
func PackB[T matrix.Float](b *matrix.Of[T]) *BOf[T] {
	p := &BOf[T]{K: b.Rows, N: b.Cols}
	p.Data = make([]T, p.Tiles()*b.Rows*TileNOf[T]())
	for t := 0; t < p.Tiles(); t++ {
		PackBTileOp(p, b, false, 0, t)
	}
	return p
}

// Unpack writes the packed contents back into dst (K×N).
func (p *BOf[T]) Unpack(dst *matrix.Of[T]) {
	if dst.Rows != p.K || dst.Cols != p.N {
		panic("pack: B.Unpack dimension mismatch")
	}
	tn := TileNOf[T]()
	for t := 0; t < p.Tiles(); t++ {
		tile := p.Tile(t)
		cols := p.TileCols(t)
		base := t * tn
		for k := 0; k < p.K; k++ {
			copy(dst.Row(k)[base:base+cols], tile[k*tn:k*tn+cols])
		}
	}
}

// MicroKernel computes the rows×cols corner of c += a-tile × b-tile,
// mirroring the register blocking of the basic kernels: for each p in
// [0,K), broadcast column p of a (contiguous in the column-major tile) and
// multiply by the 8-wide row p of b (contiguous in the row-major tile).
// c is row-major with leading dimension ldc, starting at the tile's
// top-left element.
//
// Every product is performed unconditionally — zero entries of a are not
// skipped — so NaN and Inf values in b propagate into c exactly as IEEE
// multiplication demands (0·NaN = NaN), keeping the packed path
// element-wise consistent with the reference triple loop on special
// values. For a fixed k the accumulation order of each element is
// independent of the tile's position, the matrix partitioning and the
// worker count, which is what lets every LU driver in this repository
// stay bitwise reproducible on top of this kernel.
//
// Two implementations sit behind this entry point:
//
//   - The vector kernel (amd64 with AVX2+FMA, see kernel_amd64.go): 6×8
//     register blocks, each element accumulated in ascending p with fused
//     multiply-add — the register blocking of the paper's Basic Kernel 2,
//     which needs real vector FMA to approach machine peak.
//   - The portable scalar kernel: row-at-a-time with 8 scalar
//     accumulators, unfused multiply-add in the same ascending-p order.
//     This path is bit-for-bit the arithmetic of the K-block-grouped
//     reference loop and serves as its oracle.
//
// Both paths perform every product unconditionally, accumulate each
// element in ascending p, and add the block sum into c exactly once — so
// for a fixed k the accumulation order of each element is independent of
// the tile's position, the matrix partitioning and the worker count,
// which is what lets every LU driver in this repository stay bitwise
// reproducible on top of this kernel. The two paths differ only in
// product rounding (fused vs. separate), so results are deterministic on
// a given machine and element-wise within O(k)·ulp of each other across
// machines. The dispatch inspects only machine-global state (the CPUID
// probe, DisableVectorKernel) and the tile geometry — never the operand
// shape — so one process never mixes kernels across the differently-
// partitioned calls of a single mathematical update.
func MicroKernel(aTile []float64, tileM, k int, bTile []float64, c []float64, ldc, rows, cols int) {
	if k <= 0 || rows <= 0 || cols <= 0 {
		return
	}
	if UseVector() && tileM%MicroM == 0 {
		for r0 := 0; r0 < rows; r0 += MicroM {
			br := min(rows-r0, MicroM)
			if br == MicroM && cols == TileN {
				// Full block: the assembly epilogue adds straight into c.
				kernelBlock(aTile, tileM, k, r0, bTile, c[r0*ldc:], ldc)
				continue
			}
			// Edge block: the assembly always touches a full 6×8 window,
			// so stage the real br×cols corner through a stack copy and
			// never let it write outside the window. Padding rows of the
			// a-tile and padding columns of the b-tile are zero; what they
			// add to the staging buffer is simply not copied back.
			var win [MicroM * TileN]float64
			for i := 0; i < br; i++ {
				copy(win[i*TileN:], c[(r0+i)*ldc:(r0+i)*ldc+cols])
			}
			kernelBlock(aTile, tileM, k, r0, bTile, win[:], TileN)
			for i := 0; i < br; i++ {
				copy(c[(r0+i)*ldc:(r0+i)*ldc+cols], win[i*TileN:])
			}
		}
		return
	}
	microKernelScalar(aTile, tileM, k, bTile, c, ldc, rows, cols)
}

// microKernelScalar is the portable row-at-a-time kernel: one row of the
// a-tile against the whole b-tile, with the row's eight partial sums held
// in scalar locals so the compiler keeps them in registers (a 30×8
// accumulator array would spill to the stack and pay a load+store per
// multiply-add). Per element the arithmetic is unchanged — ascending-p
// summation, then a single add into c — so reordering the i/p loops does
// not move a single bit.
func microKernelScalar(aTile []float64, tileM, k int, bTile []float64, c []float64, ldc, rows, cols int) {
	bt := bTile[:k*TileN]
	for i := 0; i < rows; i++ {
		// s0..s7 mirror one row of the v0..v29 accumulator registers.
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		ai := i
		for p := 0; p <= len(bt)-TileN; p += TileN {
			av := aTile[ai]
			ai += tileM
			b8 := bt[p : p+TileN : p+TileN]
			s0 += av * b8[0]
			s1 += av * b8[1]
			s2 += av * b8[2]
			s3 += av * b8[3]
			s4 += av * b8[4]
			s5 += av * b8[5]
			s6 += av * b8[6]
			s7 += av * b8[7]
		}
		// The "update c" epilogue whose cost is amortized by large k.
		row := c[i*ldc : i*ldc+cols]
		sums := [TileN]float64{s0, s1, s2, s3, s4, s5, s6, s7}
		for j := range row {
			row[j] += sums[j]
		}
	}
}

// Kernel runs the micro-kernel of T: MicroKernel for float64,
// MicroKernel32 for float32. The choice is made by the compiler in each
// instantiation, so the generic drivers above the kernels pay nothing for
// being written once.
func Kernel[T matrix.Float](aTile []T, tileM, k int, bTile, c []T, ldc, rows, cols int) {
	if matrix.Is64[T]() {
		MicroKernel(matrix.Slice64(aTile), tileM, k, matrix.Slice64(bTile), matrix.Slice64(c), ldc, rows, cols)
		return
	}
	MicroKernel32(matrix.Slice32(aTile), tileM, k, matrix.Slice32(bTile), matrix.Slice32(c), ldc, rows, cols)
}

// Gemm computes c += a·b from packed operands using the micro-kernel, with
// the (aTile, bTile) grid claimed by up to workers participants of the
// persistent worker pool. It is the functional model of the paper's
// native DGEMM and SGEMM: packing plus a grid of TileM×TileN
// register-blocked outer products.
func Gemm[T matrix.Float](a *AOf[T], b *BOf[T], c *matrix.Of[T], workers int) {
	if a.K != b.K || c.Rows != a.M || c.Cols != b.N {
		panic("pack: Gemm dimension mismatch")
	}
	bTiles := b.Tiles()
	pool.Do(a.Tiles()*bTiles, workers, func(j int) {
		ta, tb := j/bTiles, j%bTiles
		off := ta*a.TileM*c.Stride + tb*TileNOf[T]()
		Kernel(a.Tile(ta), a.TileM, a.K, b.Tile(tb), c.Data[off:], c.Stride, a.TileRows(ta), b.TileCols(tb))
	})
}

// PackATileOp packs tile t of the K-block [k0, k0+p.K) of op(src), scaled
// by alpha, into p.Data. op(src) is src when trans is false and srcᵀ
// otherwise; p carries the destination geometry (M, K = block depth,
// TileM) and must have Data preallocated to Tiles()*TileM*K. Padding rows
// of a partial bottom tile are explicitly zeroed, so p.Data may be a
// recycled buffer with stale contents.
//
// Tiles are independent, which is what lets the BLAS layer pack them in
// parallel; folding alpha into the packed panel here makes the micro-
// kernel's per-element arithmetic (alpha·a)·b identical to the reference
// loop's.
func PackATileOp[T matrix.Float](p *AOf[T], src *matrix.Of[T], trans bool, alpha T, k0, t int) {
	tile := p.Tile(t)
	rows := p.TileRows(t)
	base := t * p.TileM
	tm := p.TileM
	if rows < tm {
		for kk := 0; kk < p.K; kk++ {
			clear(tile[kk*tm+rows : (kk+1)*tm])
		}
	}
	if !trans {
		for i := 0; i < rows; i++ {
			srcRow := src.Row(base + i)[k0 : k0+p.K]
			for kk, v := range srcRow {
				tile[kk*tm+i] = alpha * v
			}
		}
		return
	}
	// op(src)(i, kk) = src(k0+kk, base+i): row k0+kk of src holds the
	// tile's k-column kk contiguously.
	for kk := 0; kk < p.K; kk++ {
		srcRow := src.Row(k0 + kk)[base : base+rows]
		dst := tile[kk*tm : kk*tm+rows]
		for i, v := range srcRow {
			dst[i] = alpha * v
		}
	}
}

// PackBTileOp packs tile t of the K-block [k0, k0+p.K) of op(src) into
// p.Data; op(src) is src when trans is false and srcᵀ otherwise. Padding
// columns of a partial right tile are explicitly zeroed, so p.Data may be
// a recycled buffer. Tiles are independent and safe to pack in parallel.
func PackBTileOp[T matrix.Float](p *BOf[T], src *matrix.Of[T], trans bool, k0, t int) {
	tn := TileNOf[T]()
	tile := p.Tile(t)
	cols := p.TileCols(t)
	base := t * tn
	if cols < tn {
		for kk := 0; kk < p.K; kk++ {
			clear(tile[kk*tn+cols : (kk+1)*tn])
		}
	}
	if !trans {
		for kk := 0; kk < p.K; kk++ {
			copy(tile[kk*tn:kk*tn+cols], src.Row(k0 + kk)[base:base+cols])
		}
		return
	}
	// op(src)(kk, j) = src(base+j, k0+kk): row base+j of src holds the
	// tile's column j contiguously over kk.
	for j := 0; j < cols; j++ {
		srcRow := src.Row(base + j)[k0 : k0+p.K]
		for kk, v := range srcRow {
			tile[kk*tn+j] = v
		}
	}
}
