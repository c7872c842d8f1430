package linalg

import (
	"fmt"
	"sync/atomic"
)

// tiles.go holds the cache-blocking geometry of the packed GEMM family
// (DESIGN.md §17).
//
// The packed kernels block at three levels, Goto/BLIS style:
//
//	NC — a column strip of C/B sized for the outer cache level; one packed
//	     B block (KC×NC) is reused across every row block of the strip.
//	KC — the reduction-panel depth: one KC×nr B panel (KC·4·8 bytes) stays
//	     L1-resident while the micro-kernel streams row panels against it.
//	MC — the row-block height: one packed A block (MC×KC) stays L2-resident
//	     across the strip's column panels.
//
// Under them sits a fixed 4×4 register tile (mrTile×nrTile): sixteen
// accumulators the compiler keeps in registers across the whole KC panel.
// Tile sizes steer only cache locality — every output element accumulates
// its k terms in ascending order no matter the shape — so tests can pin
// any shape without touching a single result bit.

// TileShape is the (MC, KC, NC) cache-blocking geometry of the packed GEMM
// kernels. The zero value means "unpinned" in SetKernelTiles.
type TileShape struct{ MC, KC, NC int }

func (t TileShape) String() string { return fmt.Sprintf("mc%d kc%d nc%d", t.MC, t.KC, t.NC) }

// mrTile×nrTile is the register micro-tile: 16 unrolled accumulators. The
// pack routines interleave panels at exactly this width.
const (
	mrTile = 4
	nrTile = 4
)

// defaultTiles is the shape every packed kernel uses unless one is pinned:
// a 16 KiB L1 B-panel slab (kc·nr doubles), a 256 KiB L2 A block. It is
// fixed rather than probed at run time: serial GEMM at 512³ on a 2-CPU
// Xeon host put four bracketing shapes (mc64/kc128/nc512 through
// mc256/kc512/nc512) within each other's run-to-run spread (DESIGN.md §17).
var defaultTiles = TileShape{MC: 128, KC: 256, NC: 512}

// pinnedTiles overrides defaultTiles when non-nil (SetKernelTiles).
var pinnedTiles atomic.Pointer[TileShape]

// SetKernelTiles pins an explicit tile shape (tests pin tiny shapes to
// exercise every block boundary). The zero TileShape unpins, restoring
// defaultTiles.
func SetKernelTiles(t TileShape) {
	if t == (TileShape{}) {
		pinnedTiles.Store(nil)
		return
	}
	if t.MC < 1 || t.KC < 1 || t.NC < 1 {
		panic(fmt.Sprintf("linalg: invalid tile shape %+v", t))
	}
	pinnedTiles.Store(&t)
}

// KernelTiles returns the shape the next packed kernel will use.
func KernelTiles() TileShape {
	if p := pinnedTiles.Load(); p != nil {
		return *p
	}
	return defaultTiles
}

// KernelTileInfo describes the tile shape for bench result headers, e.g.
// "mr4 nr4 mc128 kc256 nc512 (default)".
func KernelTileInfo() string {
	ts, source := defaultTiles, "default"
	if p := pinnedTiles.Load(); p != nil {
		ts, source = *p, "pinned"
	}
	return fmt.Sprintf("mr%d nr%d mc%d kc%d nc%d (%s)", mrTile, nrTile, ts.MC, ts.KC, ts.NC, source)
}
