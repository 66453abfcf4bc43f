package core

import (
	"fmt"

	"ftla/internal/blas"
	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/lapack"
	"ftla/internal/matrix"
	"ftla/internal/obs"
)

// Cholesky computes the protected blocked lower Cholesky factorization of
// the symmetric positive definite matrix a on the simulated heterogeneous
// system: panel decomposition on the CPU, panel update and trailing-matrix
// update on the GPUs, panels broadcast over PCIe, checksums maintained and
// verified according to opts. It returns the full gathered matrix (the
// factor L in the lower triangle) and the run report.
//
// The per-iteration dataflow matches MAGMA's hybrid right-looking Cholesky
// and the paper's Algorithm 2, expressed as ladder stages for the step
// runtime (see runtime.go):
//
//	GPU_owner → CPU   diagonal block transfer     (panelFactor)
//	CPU               PD: POTF2 on A11            (panelFactor)
//	CPU → GPU_owner   factored block writeback    (panelCommit)
//	GPU_owner         PU: L21 = A21·L11⁻ᵀ (column checksums ride the TRSM)
//	GPU_owner → all   L21 panel broadcast         (panelUpdate)
//	all GPUs          TMU: A22 −= L21·L21ᵀ (full checksums maintained via
//	                  the transposed-column-checksum trick of Fig. 2)
func Cholesky(sys *hetsim.System, a *matrix.Dense, opts Options) (*matrix.Dense, *Result, error) {
	it, err := solo("cholesky", sys, a, opts, newCholLadder)
	if err != nil {
		return nil, nil, err
	}
	return it.out, it.es.res, nil
}

// cholStep is the staging state a Cholesky ladder step carries between its
// stages: the pulled CPU panel from panelFactor until panelCommit writes
// it back, and the broadcast L21 stages from panelUpdate until tmuFinish
// retires them.
type cholStep struct {
	cpuPanel, cpuChk *hetsim.Buffer
	pm, cm           *matrix.Dense
	stages           []stagePair
}

// cholLadder is the Cholesky instantiation of the step-runtime ladder.
type cholLadder struct {
	p    *protected
	es   *engineSys
	pl   plan
	step []*cholStep
	err  error
}

// newCholLadder builds the Cholesky ladder over the protected layout p.
func newCholLadder(es *engineSys, p *protected) ladder {
	return &cholLadder{p: p, es: es, pl: planFor(es.opts.Scheme), step: make([]*cholStep, p.nbr)}
}

func (l *cholLadder) steps() int     { return l.p.nbr }
func (l *cholLadder) failed() error  { return l.err }
func (l *cholLadder) panelPivot(int) {}

// checkpoint snapshots the distributed state after step next-1; Cholesky
// carries no per-step history beyond the matrix itself.
func (l *cholLadder) checkpoint(next int) *Checkpoint {
	return l.p.captureCheckpoint(next)
}

// resume restores the distributed state from cp onto the current device
// set and drops any staged per-step state, ready to replay from
// cp.NextStep.
func (l *cholLadder) resume(cp *Checkpoint) {
	l.p.restoreFrom(cp)
	l.step = make([]*cholStep, l.p.nbr)
}

// panelFactor pulls the diagonal block (and its checksum strip) to the
// CPU, verifies it, factors it with POTF2 under local-restart protection,
// and re-encodes the certified checksums. The factored block stays staged
// host-side; panelCommit owns the writeback.
func (l *cholLadder) panelFactor(k int) {
	p, es := l.p, l.es
	cpu := es.sys.CPU()
	res, pl := es.res, l.pl
	nb := p.nb
	o := k * nb
	gk := p.owner(k)
	chk := es.opts.Mode != NoChecksum
	st := &cholStep{}
	l.step[k] = st

	a11dev := p.local[gk].View(o, p.localOff(k), nb, nb)
	st.cpuPanel = cpu.Alloc(nb, nb)
	es.transfer(a11dev, st.cpuPanel)
	st.pm = st.cpuPanel.Access(cpu)
	if chk {
		st.cpuChk = cpu.Alloc(2, nb)
		es.transfer(p.colChkView(k, k, k+1), st.cpuChk)
		st.cm = st.cpuChk.Access(cpu)
	}
	pdRegs := []fault.Region{
		{Part: fault.ReferencePart, M: st.pm, Row0: o, Col0: o},
		{Part: fault.UpdatePart, M: st.pm, Row0: o, Col0: o},
	}
	es.injectMem(k, fault.PD, pdRegs)
	if pl.beforePD && chk {
		// Under Full mode the diagonal block's row-checksum pair rides
		// along, so a column left unlocalizable by a previous TMU's
		// cross-contamination can be rebuilt element-wise.
		var rowRepair func(col int) bool
		if es.opts.Mode == Full {
			cpuRowChk := cpu.Alloc(nb, 2)
			es.transfer(p.rowChkView(k, o, o+nb), cpuRowChk)
			rm := cpuRowChk.Access(cpu)
			rowRepair = func(col int) bool {
				return p.reconstructColViaRowChk(st.pm, rm, col)
			}
		}
		if out := p.verifyRepairCol(cpu.Workers(), st.pm, st.cm, rowRepair); out == repairFailed {
			res.Unrecoverable = true
		}
		res.Counter.PDBefore++
	}
	snapshot := st.pm.Clone()
	var snapChk *matrix.Dense
	if chk {
		snapChk = st.cm.Clone()
	}
	es.injectOnChip(k, fault.PD, pdRegs)
	if err := p.cholPD(es, k, st.pm, snapshot, snapChk, pl, pdRegs); err != nil {
		l.err = err
		return
	}
	if chk {
		// Certified re-encode: the stored block (L11 lower, original
		// symmetric values above) becomes the protected content.
		p.encodeColInto(cpu.Workers(), st.pm, st.cm)
	}
}

// panelCommit writes the certified factored block back to its owner GPU
// over PCIe (the §V communication window covers it) and, under schemes
// that verify after broadcast, re-checks the received copy.
func (l *cholLadder) panelCommit(k int) {
	p, es := l.p, l.es
	res, pl := es.res, l.pl
	nb := p.nb
	o := k * nb
	gk := p.owner(k)
	gdevK := es.sys.GPU(gk)
	chk := es.opts.Mode != NoChecksum
	st := l.step[k]
	if st == nil || st.cpuPanel == nil {
		return
	}

	a11dev := p.local[gk].View(o, p.localOff(k), nb, nb)
	es.withCommContext(k, fault.PD, o, o, func() {
		es.transfer(st.cpuPanel, a11dev)
		if chk {
			es.transfer(st.cpuChk, p.colChkView(k, k, k+1))
		}
	})
	if pl.afterPDBcast && chk {
		gd := a11dev.Access(gdevK)
		gc := p.colChkView(k, k, k+1).Access(gdevK)
		out := p.verifyRepairCol(gdevK.Workers(), gd, gc, nil)
		res.Counter.PDAfter++
		if out == repairFailed {
			// PCIe corrupted the writeback beyond local repair:
			// re-transfer the certified CPU copy.
			es.transfer(st.cpuPanel, a11dev)
			es.transfer(st.cpuChk, p.colChkView(k, k, k+1))
			res.Counter.Rebroadcasts++
		}
	}
	st.cpuPanel, st.cpuChk = nil, nil
}

// panelUpdate runs PU — L21 = A21·L11⁻ᵀ on the owner GPU with its
// checksum TRSM — and broadcasts the panel (plus checksums) to every GPU,
// including the §VII.C post-broadcast verification and restart paths.
func (l *cholLadder) panelUpdate(k int) {
	p, es := l.p, l.es
	sys := es.sys
	res, pl := es.res, l.pl
	nb := p.nb
	nbr := p.nbr
	n := p.n
	o := k * nb
	gk := p.owner(k)
	gdevK := sys.GPU(gk)
	chk := es.opts.Mode != NoChecksum
	st := l.step[k]
	m2 := n - o - nb

	a11dev := p.local[gk].View(o, p.localOff(k), nb, nb)
	pnl := p.local[gk].View(o+nb, p.localOff(k), m2, nb)
	var pnlChk *hetsim.Buffer
	if chk {
		pnlChk = p.colChk[gk].View(2*(k+1), p.localOff(k), 2*(nbr-k-1), nb)
	}
	puRegs := []fault.Region{
		{Part: fault.ReferencePart, M: a11dev.UnsafeData(), Row0: o, Col0: o},
		{Part: fault.UpdatePart, M: pnl.UnsafeData(), Row0: o + nb, Col0: o},
	}
	es.injectMem(k, fault.PU, puRegs)
	if pl.beforePU && chk {
		// Reference part first: a DRAM fault striking the factored L11
		// block between the post-broadcast check and PU would otherwise
		// corrupt the whole TRSM consistently with its checksum TRSM.
		if out := p.verifyRepairCol(gdevK.Workers(), a11dev.Access(gdevK), p.colChkView(k, k, k+1).Access(gdevK), nil); out == repairFailed {
			res.Unrecoverable = true
		}
		res.Counter.PUBefore++
		var rowRepair func(col int) bool
		if es.opts.Mode == Full {
			// View-limited on purpose: the diagonal block above this
			// view was just factored, so its row checksums are stale —
			// and Cholesky contamination of the panel column can only
			// live in the diagonal block (repaired by the beforePD
			// check) or in these rows, so the window is complete.
			rchk := p.rowChkView(k, o+nb, n).Access(gdevK)
			data := pnl.Access(gdevK)
			loff := p.localOff(k)
			rowRepair = func(col int) bool {
				ok := p.reconstructColViaRowChk(data, rchk, col)
				p.reencodeColChkCol(gk, loff+col)
				return ok
			}
		}
		if out := p.verifyRepairCol(gdevK.Workers(), pnl.Access(gdevK), pnlChk.Access(gdevK), rowRepair); out == repairFailed {
			res.Unrecoverable = true
		}
		res.Counter.PUBefore += nbr - k - 1
	}
	// Snapshot for local restart of PU.
	snapPnl := gdevK.Alloc(m2, nb)
	copyWithin(gdevK, pnl, snapPnl)
	var snapPnlChk *hetsim.Buffer
	if chk {
		snapPnlChk = gdevK.Alloc(2*(nbr-k-1), nb)
		copyWithin(gdevK, pnlChk, snapPnlChk)
	}
	es.injectOnChip(k, fault.PU, puRegs)
	runPU := func() {
		gdevK.Trsm(blas.Right, true, true, false, 1, a11dev, pnl)
		// An on-chip corruption is a transient read: the checksum TRSM
		// loads its operands independently and does not see it.
		es.restoreOnChip()
		if chk {
			gdevK.Trsm(blas.Right, true, true, false, 1, a11dev, pnlChk)
		}
	}
	runPU()
	es.injectComp(k, fault.PU, puRegs)
	if pl.afterPU && chk {
		out := p.verifyRepairCol(gdevK.Workers(), pnl.Access(gdevK), pnlChk.Access(gdevK), nil)
		res.Counter.PUAfter += nbr - k - 1
		if out == repairFailed {
			// 2-D propagation inside PU: local in-memory restart.
			copyWithin(gdevK, snapPnl, pnl)
			copyWithin(gdevK, snapPnlChk, pnlChk)
			res.Counter.LocalRestarts++
			runPU()
			if p.verifyRepairCol(gdevK.Workers(), pnl.Access(gdevK), pnlChk.Access(gdevK), nil) == repairFailed {
				res.Unrecoverable = true
			}
		}
	}

	// ------------- PU broadcast: L21 (+checksums) to all GPUs -------
	chkRows := 2 * (nbr - k - 1)
	if !chk {
		chkRows = 2 // placeholder stage, never read
	}
	st.stages = p.allocStages(m2, chkRows, nb)
	pieces := stagePieces(st.stages, pnl, pnlChk, nil, nil)
	doBroadcast := func() {
		es.withCommContext(k, fault.PU, o+nb, o, func() { es.broadcast(pieces) })
	}
	doBroadcast()
	if pl.afterPUBcast && chk {
		outs, corrupted := p.verifyStages(st.stages, &res.Counter.PUAfter, nbr-k-1)
		if live := p.liveGPUs(); corrupted == live && live > 1 {
			// Every GPU received a corrupted panel: the sender (PU) is
			// implicated — local in-memory restart of PU and a fresh
			// broadcast (§VII.C).
			copyWithin(gdevK, snapPnl, pnl)
			copyWithin(gdevK, snapPnlChk, pnlChk)
			res.Counter.LocalRestarts++
			runPU()
			doBroadcast()
		} else if corrupted > 0 {
			// Some legs corrupted: PCIe is implicated; legs repaired by
			// the ladder already, re-ship any that failed.
			p.rebroadcastFailed(pnl, pnlChk, st.stages, outs)
		}
	}
}

// tmuBegin opens the trailing update: injection windows and the scheme's
// pre-TMU verification.
func (l *cholLadder) tmuBegin(k int) {
	p, es := l.p, l.es
	res, pl := es.res, l.pl
	o := k * p.nb
	chk := es.opts.Mode != NoChecksum
	st := l.step[k]

	tmuRegs := p.cholTMURegions(k, st.stages)
	es.injectMem(k, fault.TMU, tmuRegs)
	if pl.beforeTMUPanels && chk {
		_, _ = p.verifyStages(st.stages, &res.Counter.TMUBefore, p.nbr-k-1)
	}
	if pl.beforeTMUTrailing && chk {
		worst, blocks := p.verifyTrailingCol(o+p.nb, k+1)
		res.Counter.TMUBefore += blocks
		if worst == repairFailed {
			res.Unrecoverable = true
		}
	}
	es.injectOnChip(k, fault.TMU, tmuRegs)
}

// tmuGPU applies GPU g's slice of the trailing update (kernels only; the
// look-ahead schedule may run the tmuRest slice inside a stream).
func (l *cholLadder) tmuGPU(k, g int, sel tmuSel) {
	l.p.cholTMUOnGPU(g, k, l.step[k].stages[g], sel)
}

// tmuFinish closes the trailing update: computation-fault injection,
// post-TMU verification, the §VII.B heuristic, and the periodic trailing
// check, then retires the step's staging state.
func (l *cholLadder) tmuFinish(k int) {
	p, es := l.p, l.es
	res, pl := es.res, l.pl
	o := k * p.nb
	chk := es.opts.Mode != NoChecksum
	st := l.step[k]

	tmuRegs := p.cholTMURegions(k, st.stages)
	es.injectComp(k, fault.TMU, tmuRegs)
	if pl.afterTMUTrailing && chk {
		worst, blocks := p.verifyTrailingCol(o+p.nb, k+1)
		res.Counter.TMUAfter += blocks
		if worst == repairFailed {
			res.Unrecoverable = true
		}
	}
	if pl.afterTMUHeuristic && chk {
		p.cholHeuristicAfterTMU(k, st.stages)
	}
	if es.opts.PeriodicTrailingCheck > 0 && (k+1)%es.opts.PeriodicTrailingCheck == 0 && chk {
		worst, blocks := p.verifyTrailingCol(o+p.nb, k+1)
		res.Counter.TMUAfter += blocks
		if worst == repairFailed {
			res.Unrecoverable = true
		}
	}
	l.step[k] = nil
}

// cholPD factors the diagonal block on the CPU with a one-shot local
// restart: a POTF2 failure or a factor-product checksum mismatch restores
// the snapshot and retries (injected faults fire only once, so the retry
// is clean).
func (p *protected) cholPD(es *engineSys, k int, pm, snapshot, snapChk *matrix.Dense, pl plan, regs []fault.Region) error {
	cpu := es.sys.CPU()
	for attempt := 0; ; attempt++ {
		var err error
		es.kernel(cpu, "potf2", float64(p.nb*p.nb*p.nb)/3, func(int) {
			err = lapack.Potf2(pm)
		})
		es.injectComp(k, fault.PD, regs)
		ok := err == nil
		if ok && pl.afterPDCPU && es.opts.Mode != NoChecksum {
			ok = p.cholProductCheck(pm, snapChk)
			es.res.Counter.PDAfter++
			if !ok {
				es.res.Detected = true
				es.res.Counter.DetectedErrors++
			}
		}
		if ok {
			return nil
		}
		if attempt >= 1 {
			if err != nil {
				return fmt.Errorf("core: Cholesky PD failed after local restart at block %d: %w", k, err)
			}
			es.res.Unrecoverable = true
			return nil
		}
		pm.CopyFrom(snapshot)
		es.res.Counter.LocalRestarts++
	}
}

// cholProductCheck verifies the factor-product checksum relation
// c(A11) ?= (wᵀ·L̂)·L̂ᵀ, which holds because A11 = L·Lᵀ. It detects any
// corruption of the stored factor because the right-hand side is computed
// from the stored values while the left-hand side is the maintained (and
// previously verified) checksum of the input.
func (p *protected) cholProductCheck(pm, snapChk *matrix.Dense) bool {
	defer p.es.span(obs.PhaseVerify, "chol-product-check", &p.es.res.VerifyT)()
	nb := p.nb
	// Materialize L̂ (lower triangle of the stored block).
	l := matrix.NewDense(nb, nb)
	for i := 0; i < nb; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, pm.At(i, j))
		}
	}
	wl := matrix.NewDense(2, nb)
	checksum.EncodeCol(checksum.OptKernel, 1, l, nb, wl)
	prod := matrix.NewDense(2, nb)
	blas.Gemm(false, true, 1, wl, l, 0, prod)
	d, _, _ := prod.MaxAbsDiff(snapChk)
	return d <= p.tol*float64(nb)
}

// cholTMURegions exposes the TMU fault-injection targets: the reference
// part is GPU0's received L21 stage; the update part is the
// diagonal-and-below portion of GPU0's first trailing block column.
func (p *protected) cholTMURegions(k int, stages []stagePair) []fault.Region {
	o := k * p.nb
	var regs []fault.Region
	if stages[0].data != nil {
		regs = append(regs, fault.Region{Part: fault.ReferencePart, M: stages[0].data.UnsafeData(), Row0: o + p.nb, Col0: o})
	}
	lb0 := p.trailStart(0, k+1)
	if lb0 < p.nloc[0] {
		bj := p.globalBlock(0, lb0)
		r0 := bj * p.nb
		regs = append(regs, fault.Region{
			Part: fault.UpdatePart,
			M:    p.local[0].View(r0, lb0*p.nb, p.n-r0, p.nb).UnsafeData(),
			Row0: r0, Col0: bj * p.nb,
		})
	}
	return regs
}

// tmuRange resolves the local block-column range [lb0, lb1) GPU g updates
// for step k under the given TMU slice selector. The look-ahead column —
// block column k+1 — is the owner's first trailing local block (and only
// that), so the split is exact: tmuLookahead ∪ tmuRest = tmuAll, disjoint.
func (p *protected) tmuRange(g, k int, sel tmuSel) (lb0, lb1 int) {
	lb0, lb1 = p.trailStart(g, k+1), p.nloc[g]
	if sel == tmuAll {
		return lb0, lb1
	}
	if g == p.owner(k+1) {
		la := p.localBlock(k + 1)
		if sel == tmuLookahead {
			return la, la + 1
		}
		return la + 1, lb1
	}
	if sel == tmuLookahead {
		return lb0, lb0 // non-owners hold no piece of the look-ahead column
	}
	return lb0, lb1
}

// cholTMUOnGPU updates GPU g's trailing block columns (restricted to the
// slice sel selects) and their full checksums: for each local block column
// bj > k,
//
//	A[bj·nb:, bj] −= L21[bj·nb:]·L21[bj blk]ᵀ
//	colChk strips  −= c(L21) strips ·L21[bj blk]ᵀ     (column checksums)
//	rowChk pairs   −= L21[bj·nb:]·(c(L21) strip bj)ᵀ  (transposed-checksum
//	                                                   trick of Fig. 2)
func (p *protected) cholTMUOnGPU(g, k int, st stagePair, sel tmuSel) {
	gdev := p.es.sys.GPU(g)
	nb := p.nb
	o := k * nb
	chk := p.es.opts.Mode != NoChecksum
	full := p.es.opts.Mode == Full
	lb0, lb1 := p.tmuRange(g, k, sel)
	for lb := lb0; lb < lb1; lb++ {
		bj := p.globalBlock(g, lb)
		r0 := bj * nb
		c := p.local[g].View(r0, lb*nb, p.n-r0, nb)
		aStage := st.data.View(r0-(o+nb), 0, p.n-r0, nb)
		bBlk := st.data.View(r0-(o+nb), 0, nb, nb)
		gdev.Gemm(false, true, -1, aStage, bBlk, 1, c)
	}
	// On-chip corruption is transient: the checksum-maintenance kernels
	// load the stage independently and see clean values.
	p.es.restoreOnChip()
	for lb := lb0; lb < lb1; lb++ {
		bj := p.globalBlock(g, lb)
		r0 := bj * nb
		aStage := st.data.View(r0-(o+nb), 0, p.n-r0, nb)
		bBlk := st.data.View(r0-(o+nb), 0, nb, nb)
		if chk {
			cc := p.colChk[g].View(2*bj, lb*nb, 2*(p.nbr-bj), nb)
			cStage := st.chk.View(2*(bj-k-1), 0, 2*(p.nbr-bj), nb)
			gdev.Gemm(false, true, -1, cStage, bBlk, 1, cc)
		}
		if full {
			rc := p.rowChk[g].View(r0, 2*lb, p.n-r0, 2)
			cStrip := st.chk.View(2*(bj-k-1), 0, 2, nb)
			gdev.Gemm(false, true, -1, aStage, cStrip, 1, rc)
		}
	}
}

// cholHeuristicAfterTMU implements the §VII.B heuristic: instead of
// verifying the trailing matrix, re-verify each GPU's L21 stage copy. A
// corrupted stage element at global row r contaminated trailing row r (and
// column r, since Cholesky uses L21 on both sides as A·Aᵀ); both are
// rebuilt from the orthogonal checksums, accounting for the second-order
// pollution the corrupted operand left in the checksum-maintenance GEMMs.
func (p *protected) cholHeuristicAfterTMU(k int, stages []stagePair) {
	G := p.es.sys.NumGPUs()
	nb := p.nb
	o := k * nb
	for g := 0; g < G; g++ {
		if stages[g].data == nil {
			continue
		}
		gdev := p.es.sys.GPU(g)
		sd := stages[g].data.Access(gdev)
		out, fixed := p.verifyRepairColReport(gdev.Workers(), sd, stages[g].chk.Access(gdev), nil)
		p.es.res.Counter.TMUAfter += p.nbr - k - 1
		if out == repairClean {
			continue
		}
		if out == repairFailed {
			p.es.res.Unrecoverable = true
			continue
		}
		for _, fe := range fixed {
			r := o + nb + fe.Row
			clean := sd.At(fe.Row, fe.Col)
			p.repairCholCross(g, k, r, clean, fe.D1)
		}
	}
}

// repairCholCross repairs the trailing damage of one corrupted L21 stage
// element on GPU g: the element sat at global row r (= column r by the
// symmetric use of L21), its repaired value is clean, and the applied
// correction was d1 (corrupt = clean − d1). Cholesky's TMU consumed the
// corrupted value on both sides of A₂₂ −= L21·L21ᵀ, so:
//
//   - trailing row r is wrong on g's local columns; the column checksums of
//     those columns are clean (their update used c(L21), the checksum
//     operand) — except column r itself, whose column-checksum update
//     consumed the corrupted element as the B-operand;
//   - trailing column r (if its block column lives on g) is wrong, and its
//     row checksums at row r are polluted (their update used the corrupted
//     A-operand);
//   - element (r, r) took the corruption twice (clean² became corrupt²).
//
// The repair therefore reconstructs row r from column checksums (skipping
// column r), reconstructs column r from row checksums (skipping row r),
// fixes (r, r) algebraically from the known corruption magnitude, and
// re-encodes the polluted checksum lines from the repaired data.
func (p *protected) repairCholCross(g, k, r int, clean, d1 float64) {
	defer p.es.span(obs.PhaseRecover, "repair-chol-cross", &p.es.res.RecoverT)()
	nb := p.nb
	gdev := p.es.sys.GPU(g)
	lb0 := p.trailStart(g, k+1)
	if lb0 >= p.nloc[g] {
		return
	}
	jlo := lb0 * nb
	cols := p.nloc[g]*nb - jlo
	bj := r / nb
	owned := p.owner(bj) == g

	data := p.local[g].View(0, jlo, p.n, cols).Access(gdev)
	chkv := p.colChk[g].View(0, jlo, 2*p.nbr, cols).Access(gdev)
	var skip []int
	lcR := -1
	if owned {
		lcR = p.localBlock(bj)*nb + r%nb - jlo // view-relative column r
		if lcR >= 0 && lcR < cols {
			skip = append(skip, lcR)
		}
	}
	p.reconstructRowViaColChk(data, chkv, r, skip...)
	p.es.res.Counter.ReconstructedLins++

	if owned && p.es.opts.Mode == Full && lcR >= 0 {
		// Column r: rebuilt from row checksums, skipping the polluted row r.
		lb := p.localBlock(bj)
		r0 := bj * nb
		cdat := p.local[g].View(r0, lb*nb, p.n-r0, nb).Access(gdev)
		rchk := p.rowChk[g].View(r0, 2*lb, p.n-r0, 2).Access(gdev)
		p.reconstructColViaRowChk(cdat, rchk, r%nb, r-r0)
		p.es.res.Counter.ReconstructedLins++
		// (r, r): the data GEMM subtracted corrupt² where clean² belonged.
		corrupt := clean - d1
		fix := corrupt*corrupt - clean*clean
		cdat.Set(r-r0, r%nb, cdat.At(r-r0, r%nb)+fix)
		// Re-encode the polluted checksum lines from the repaired data.
		p.reencodeColChkCol(g, lb*nb+r%nb)
	}
	p.reencodeRowChkRow(g, r, lb0)
}
