// Kernel perf-floor smoke (DESIGN.md §17): the packed register-tiled GEMM
// must not regress back under the naive triple loop — the exact failure the
// pre-packing "blocked" kernel shipped with (BENCH_kernels.json history).
// Gated behind GENBASE_PERF_FLOOR=1 because wall-clock assertions are only
// meaningful on an otherwise idle host; CI sets the gate.
package genbase

import (
	"os"
	"testing"
	"time"

	"github.com/genbase/genbase/internal/linalg"
)

// TestKernelPerfFloor512 asserts packed-serial ns/op ≤ naive ns/op at
// 512×512×512 (best of three, interleaved). It also re-checks the bitwise
// contract on the same operands so a floor failure is never confused with
// a correctness failure. The same gate covers the shared query kernels'
// own floors, each a ratio against the code it replaced measured in one
// run: TestKernelPerfFloorQR (internal/linalg) and
// TestKernelPerfFloorSelect (internal/engine).
func TestKernelPerfFloor512(t *testing.T) {
	if os.Getenv("GENBASE_PERF_FLOOR") == "" {
		t.Skip("set GENBASE_PERF_FLOOR=1 to run the wall-clock kernel floor")
	}
	a := randomMatrix(512, 512, 26)
	b := randomMatrix(512, 512, 27)
	t.Logf("tiles: %s", linalg.KernelTileInfo())

	want := linalg.MulNaive(a, b) // warmup naive
	got := linalg.MulP(a, b, 1)
	if !bitsEqual(got, want) {
		t.Fatal("packed GEMM is not bitwise identical to MulNaive at 512³")
	}

	best := func(f func()) time.Duration {
		bst := time.Duration(1 << 62)
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			f()
			if d := time.Since(t0); d < bst {
				bst = d
			}
		}
		return bst
	}
	naive := best(func() { linalg.MulNaive(a, b) })
	packed := best(func() { linalg.MulP(a, b, 1) })
	t.Logf("naive %v, packed-serial %v (%.2fx)", naive, packed,
		float64(naive)/float64(packed))
	if packed > naive {
		t.Fatalf("perf floor broken: packed-serial %v slower than naive %v at 512³",
			packed, naive)
	}
}

func bitsEqual(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			va, vb := ra[j], rb[j]
			if va != vb && (va == va || vb == vb) { // NaN == NaN bit-agnostic: both NaN ok
				return false
			}
		}
	}
	return true
}
