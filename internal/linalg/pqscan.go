package linalg

// PQ asymmetric-distance scan kernels. A code row is m entries (one per
// subquantizer); table is the query's flat ADC lookup table, entry
// s*ksub+c holding the distance of the query's subvector s to codeword c.
// The accumulation contract mirrors the float kernels': four partial sums
// over the subspaces, lane l holding subspaces ≡ l mod 4, tail into s0,
// reduced s0+s1+s2+s3 — four independent gather chains per row instead of
// one serial add chain. SSE2 has no gather instruction, so the narrow
// (1-byte) scan's assembly path is scalar loads under the same contract;
// its win over the Go loop is pure bounds-check and loop-overhead removal
// on the per-element gathers that dominate the scan.

// pqRow8 accumulates one code row against one table under the contract.
func pqRow8(table []float32, row []byte, ksub int) float32 {
	var s0, s1, s2, s3 float32
	m := len(row)
	j := 0
	for ; j+4 <= m; j += 4 {
		s0 += table[j*ksub+int(row[j])]
		s1 += table[(j+1)*ksub+int(row[j+1])]
		s2 += table[(j+2)*ksub+int(row[j+2])]
		s3 += table[(j+3)*ksub+int(row[j+3])]
	}
	for ; j < m; j++ {
		s0 += table[j*ksub+int(row[j])]
	}
	return s0 + s1 + s2 + s3
}

// pqRow16 is pqRow8 over wide ([]uint16) codes.
func pqRow16(table []float32, row []uint16, ksub int) float32 {
	var s0, s1, s2, s3 float32
	m := len(row)
	j := 0
	for ; j+4 <= m; j += 4 {
		s0 += table[j*ksub+int(row[j])]
		s1 += table[(j+1)*ksub+int(row[j+1])]
		s2 += table[(j+2)*ksub+int(row[j+2])]
		s3 += table[(j+3)*ksub+int(row[j+3])]
	}
	for ; j < m; j++ {
		s0 += table[j*ksub+int(row[j])]
	}
	return s0 + s1 + s2 + s3
}

// pqScan8Go is the portable narrow scan: the contract reference the asm
// kernel must match bitwise.
func pqScan8Go(table []float32, codes []byte, m, ksub int, out []float32) {
	for i := range out {
		out[i] = pqRow8(table, codes[i*m:i*m+m], ksub)
	}
}

// pqTileRows bounds the row tile of the multi-table scans so one tile of
// codes (~16KB) stays L1-resident while every table scans it.
func pqTileRows(m int) int {
	t := 16384 / m
	if t < 1 {
		t = 1
	}
	return t
}

// PQScan8Multi scores every code row against every table with one
// streaming pass over the codes: rows are tiled so each ~16KB tile of the
// arena is loaded once and stays cache-resident while all Q tables scan
// it (the code-arena traffic, the streaming cost of an out-of-cache scan,
// is paid once per tile), and within a tile each table runs the blocked
// single-query kernel. Per (table, row) the arithmetic is exactly the
// contract's (pqScan8Go), so outs[t] is bitwise equal to a single-query
// scan with tables[t]: out[i] = Σ_s table[s*ksub + codes[i*m+s]].
func PQScan8Multi(tables [][]float32, codes []byte, m, ksub int, outs [][]float32) {
	if m == 0 {
		for t := range outs {
			for i := range outs[t] {
				outs[t][i] = 0
			}
		}
		return
	}
	rows := len(codes) / m
	tile := pqTileRows(m)
	for lo := 0; lo < rows; lo += tile {
		hi := lo + tile
		if hi > rows {
			hi = rows
		}
		block := codes[lo*m : hi*m]
		for t, table := range tables {
			pqScan8Kernel(table, block, m, ksub, outs[t][lo:hi])
		}
	}
}

// PQScan16Multi is PQScan8Multi over wide ([]uint16) codes.
func PQScan16Multi(tables [][]float32, codes []uint16, m, ksub int, outs [][]float32) {
	if m == 0 {
		for t := range outs {
			for i := range outs[t] {
				outs[t][i] = 0
			}
		}
		return
	}
	rows := len(codes) / m
	tile := pqTileRows(m)
	for lo := 0; lo < rows; lo += tile {
		hi := lo + tile
		if hi > rows {
			hi = rows
		}
		for t, table := range tables {
			out := outs[t]
			for i := lo; i < hi; i++ {
				out[i] = pqRow16(table, codes[i*m:i*m+m], ksub)
			}
		}
	}
}
