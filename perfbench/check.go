package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"ftla"
	"ftla/internal/service"
)

// solveTol bounds the normwise backward error of a solve through a
// factor, ‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞). It matches the program's own
// accuracy contract, a factor residual ‖A − factors‖_F/‖A‖_F of at most
// 1e-9 (the service's default ResidualTol), with room for the change of
// norm: an ABFT-corrected factor at residual 2.7e-10 gave a backward error
// of 1.7e-9. A fault-free factor gives about 1e-15; a corrupted element
// of relative size 1e-6 or more shows as errors of order 1e-9 and up.
const solveTol = 1e-8

// genMatrix builds the input for decomposition d: symmetric positive
// definite for Cholesky, diagonally dominant for LU, uniform for QR.
func genMatrix(d service.Decomp, n int, seed uint64) *ftla.Matrix {
	switch d {
	case service.Cholesky:
		return ftla.RandomSPD(n, seed)
	case service.LU:
		return ftla.RandomDiagDominant(n, seed)
	default:
		return ftla.Random(n, n, seed)
	}
}

// genVector returns n uniform values in [-1, 1), deterministic in seed.
func genVector(n int, seed uint64) []float64 {
	return append([]float64(nil), ftla.Random(1, n, seed).Data...)
}

// subSeed derives the seed of item i of stream s from the workload seed, so
// every generated input depends on the workload seed alone.
func subSeed(seed uint64, stream, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// backwardError is ‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞), +Inf when a value is
// not finite or the lengths disagree.
func backwardError(a *ftla.Matrix, x, b []float64) float64 {
	if len(x) != a.Cols || len(b) != a.Rows {
		return math.Inf(1)
	}
	var rNorm, aNorm, xNorm, bNorm float64
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		s, abs := -b[i], 0.0
		for j, v := range row {
			s += v * x[j]
			abs += math.Abs(v)
		}
		rNorm = math.Max(rNorm, math.Abs(s))
		aNorm = math.Max(aNorm, abs)
		bNorm = math.Max(bNorm, math.Abs(b[i]))
	}
	for _, v := range x {
		xNorm = math.Max(xNorm, math.Abs(v))
	}
	e := rNorm / (aNorm*xNorm + bNorm)
	if math.IsNaN(e) {
		return math.Inf(1)
	}
	return e
}

// verified reports whether factor f solves A·x = probe to solveTol and, when
// the job carried a right-hand side b, whether the returned solution x does
// too. Both checks read only f's public Solve and the inputs.
func verified(a *ftla.Matrix, f *service.Factorization, probe, b, x []float64) bool {
	if f == nil {
		return false
	}
	px, err := f.Solve(probe)
	if err != nil || backwardError(a, px, probe) > solveTol {
		return false
	}
	return b == nil || backwardError(a, x, b) <= solveTol
}

// fingerprint hashes the descriptions of jobs [0, count) of a job source:
// equal fingerprints mean equal job sequences.
func fingerprint(src source, count int) uint64 {
	h := fnv.New64a()
	for i := 0; i < count; i++ {
		j := src.job(i)
		fmt.Fprintf(h, "%d|%s|%s|%x|%x|%x;", j.decomp, j.inputID, j.fault, matrixHash(j.a), floatsHash(j.b), floatsHash(j.probe))
	}
	return h.Sum64()
}

func matrixHash(m *ftla.Matrix) uint64 {
	if m == nil {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Data[i*m.Stride : i*m.Stride+m.Cols] {
			putBits(&buf, v)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func floatsHash(xs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range xs {
		putBits(&buf, v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func putBits(buf *[8]byte, v float64) {
	u := math.Float64bits(v)
	for k := range buf {
		buf[k] = byte(u >> (8 * k))
	}
}
