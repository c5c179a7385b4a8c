package linalg

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guarded maps n bytes of its own followed by one PROT_NONE page and
// returns the slice of every byte up to that page: a read past the end of
// a tail of it faults. The mapping is the test's alone and is unmapped
// when the test ends.
func guarded(t *testing.T, n int) []byte {
	page := syscall.Getpagesize()
	size := (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return mem[:size:size]
}

// TestKernelsReadNoFurtherThanTheirLastRow runs every dispatched float,
// SQ8 and gathered kernel wrapper, at each tier, at 0–13 rows × every
// kernelDims dim, on a block or code arena whose last row ends flush
// against a PROT_NONE page: a kernel — a padded short group included —
// that reads one byte past the rows it was given faults, and the fault
// fails the test. TestKernelAsmMatchesGo's canary slot guards writes.
func TestKernelsReadNoFurtherThanTheirLastRow(t *testing.T) {
	const maxRows = 13
	maxDim := kernelDims[len(kernelDims)-1]
	floatMem := guarded(t, 4*maxRows*maxDim)
	byteMem := guarded(t, maxRows*maxDim)
	forEachTier(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		rng := rand.New(rand.NewSource(3))
		for _, dim := range kernelDims {
			q := [4][]float32{randVec(rng, dim), randVec(rng, dim), randVec(rng, dim), randVec(rng, dim)}
			min, scale := randAffine(rng, dim)
			for rows := 0; rows <= maxRows; rows++ {
				// The arenas' tails: rows*dim values ending at the guard page.
				fb := floatMem[len(floatMem)-4*rows*dim:]
				block := unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(fb))), rows*dim)
				copy(block, randVec(rng, rows*dim))
				codes := byteMem[len(byteMem)-rows*dim:]
				copy(codes, randCodes(rng, rows*dim))
				var o [4][]float32
				for i := range o {
					o[i] = make([]float32, rows)
				}
				store := &Matrix{data: block, dim: dim, stride: dim, rows: rows}
				ids := make([]int32, rows)
				for i := range ids {
					ids[i] = int32(i)
				}
				run := func(kernel string, f func()) {
					t.Helper()
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s dim=%d rows=%d read past its last row: %v", kernel, dim, rows, r)
						}
					}()
					f()
				}
				run("l2Block", func() { l2BlockKernel(q[0], block, o[0]) })
				run("l2Multi4", func() { l2Multi4Kernel(q[0], q[1], q[2], q[3], block, o[0], o[1], o[2], o[3]) })
				run("sq8L2Block", func() { sq8L2BlockKernel(q[0], scale, codes, o[0]) })
				run("sq8L2Multi4", func() { sq8L2Multi4Kernel(q[0], q[1], q[2], q[3], scale, codes, o[0], o[1], o[2], o[3]) })
				for op := opNone; op <= opOneMinus; op++ {
					name := fmt.Sprintf("op=%d", op)
					run("dotBlock "+name, func() { dotBlockKernel(q[0], block, o[0], op) })
					run("dotMulti4 "+name, func() { dotMulti4Kernel(q[0], q[1], q[2], q[3], block, o[0], o[1], o[2], o[3], op) })
					run("sq8DotBlock "+name, func() { sq8DotBlockKernel(q[0], min, scale, codes, o[0], op) })
					run("sq8DotMulti4 "+name, func() {
						sq8DotMulti4Kernel(q[0], q[1], q[2], q[3], min, scale, codes, o[0], o[1], o[2], o[3], op)
					})
				}
				for _, m := range []Metric{L2, InnerProduct, Angular} {
					run("DistanceRows "+m.String(), func() { DistanceRows(m, q[0], store, ids, o[0]) })
				}
			}
		}
	})
}
