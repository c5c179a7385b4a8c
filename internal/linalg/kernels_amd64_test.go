//go:build amd64 && !purego

package linalg

import "testing"

// TestDetectTier: AVX2 only when the CPU has AVX and AVX2 and the OS
// saves YMM state; any one missing falls back to the portable kernels.
func TestDetectTier(t *testing.T) {
	all := cpuWords{maxLeaf: 7, ecx1: 1<<27 | 1<<28, ebx7: 1 << 5, xcr0: 1<<1 | 1<<2}
	for _, c := range []struct {
		name string
		edit func(w *cpuWords)
		want kernelTier
	}{
		{"all present", func(*cpuWords) {}, tierAVX2},
		{"XCR0 bits 1-2 clear", func(w *cpuWords) { w.xcr0 = 0 }, tierPortable},
		{"XCR0 YMM bit clear", func(w *cpuWords) { w.xcr0 = 1 << 1 }, tierPortable},
		{"max leaf below 7", func(w *cpuWords) { w.maxLeaf = 6 }, tierPortable},
		{"OSXSAVE clear", func(w *cpuWords) { w.ecx1 &^= 1 << 27 }, tierPortable},
		{"AVX clear", func(w *cpuWords) { w.ecx1 &^= 1 << 28 }, tierPortable},
		{"AVX2 clear", func(w *cpuWords) { w.ebx7 = 0 }, tierPortable},
	} {
		w := all
		c.edit(&w)
		if got := detectTier(w); got != c.want {
			t.Errorf("%s: detectTier(%+v) = %v, want %v", c.name, w, got, c.want)
		}
	}
}
