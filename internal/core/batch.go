package core

import (
	"fmt"

	"ftla/internal/batch"
	"ftla/internal/fault"
	"ftla/internal/hetsim"
	"ftla/internal/matrix"
)

// Batched drivers.
//
// CholeskyBatch, LUBatch, and QRBatch factorize every item of a
// batch.Batch slab as one run set on the step runtime (runLadder): for
// each step k, each stage sweeps across all live items before the next
// stage begins, so the per-step work of the whole slab is issued together.
// The build, panel-factor, panel-commit, panel-update, and gather sweeps
// run inside a hetsim transfer-coalescing window
// (System.CoalesceTransfers), so a step's panel pulls, writebacks, and
// broadcasts pay the fixed per-transfer latency once per link for the
// entire batch — the batched analogue of a strided cudaMemcpy — which is
// where the serving layer's jobs/sec win over solo dispatch comes from
// (see BENCH_batch.json). A one-item batch keeps those windows; the solo
// entry points never open them.
//
// Per-item semantics:
//
//   - Arithmetic is bit-identical to a solo run of the same item: each
//     item executes exactly the ladder code of the solo driver on disjoint
//     buffers; items interact only through the shared simulated clock. The
//     batch bit-identity tests pin this across decompositions, schedules,
//     and GPU counts, and the pipeline tests pin that a batch journals the
//     same canonical stage sequence as a solo run.
//   - Failure is isolated: an item whose driver errors (failed panel
//     factorization, corrupted queue input) is flagged and its remaining
//     stages are skipped while its siblings run to completion; the
//     per-item error slice reports it. Only a fail-stop abort — rejected
//     from batch options precisely for this reason — would take the whole
//     dispatch down.
//   - Fault injection is per item (the injs argument); attaching any
//     injector forces the serial schedule for the whole batch, the same
//     schedule-invariance rule the solo runtime applies (results are
//     bit-identical either way).
//   - Checkpointing, resume, rebalancing, and fail-stop and node-fault
//     plans are not supported in batched runs: they steer or abort the
//     whole shared schedule from one run's state, and the serving layer's
//     per-item fallback (retry the one bad item solo) covers their role.
//     Options carrying them are rejected up front.
//   - On a multi-node system every item carries its own erasure-coded
//     parity and refreshes it after each verified step, as a solo run
//     does.
//
// Result caveats: Wall, SimMakespan, PCIeBytes, and Flops on a batched
// item's Result describe the whole batch dispatch (the clock and counters
// are system-wide), not the item alone; the verification/recovery counters
// and outcome fields are per item as usual.

// validateBatchOpts rejects option combinations the batched runners do not
// support; see the package comment above.
func validateBatchOpts(b *batch.Batch, opts Options, injs []*fault.Injector) error {
	if b == nil || b.Count() < 1 {
		return fmt.Errorf("core: empty batch")
	}
	if opts.NB != b.NB() {
		return fmt.Errorf("core: batch block size %d != Options.NB %d", b.NB(), opts.NB)
	}
	if err := opts.Validate(b.N()); err != nil {
		return err
	}
	if opts.Injector != nil {
		return fmt.Errorf("core: batched runs take per-item injectors, not Options.Injector")
	}
	if opts.Resume != nil || opts.CheckpointEvery > 0 || opts.OnCheckpoint != nil {
		return fmt.Errorf("core: checkpoint/resume options are not supported in batched runs")
	}
	if len(opts.FailStop) > 0 {
		return fmt.Errorf("core: fail-stop plans are not supported in batched runs")
	}
	if len(opts.NodeFault) > 0 {
		return fmt.Errorf("core: node-fault plans are not supported in batched runs")
	}
	if opts.Rebalance.Every > 0 {
		return fmt.Errorf("core: rebalancing is not supported in batched runs")
	}
	if injs != nil && len(injs) != b.Count() {
		return fmt.Errorf("core: %d injectors for %d batch items", len(injs), b.Count())
	}
	return nil
}

// batched validates a slab, flags the items whose queue-integrity strips
// no longer match (corrupted host-side since submission) with a per-item
// error, and runs the rest as one coalesced set.
func batched(decomp string, sys *hetsim.System, b *batch.Batch, opts Options, injs []*fault.Injector,
	newLadder func(*engineSys, *protected) ladder,
) ([]*runItem, error) {
	if err := validateBatchOpts(b, opts, injs); err != nil {
		return nil, err
	}
	if err := opts.ValidateTopology(sys); err != nil {
		return nil, err
	}
	as := make([]*matrix.Dense, b.Count())
	for i := range as {
		as[i] = b.Item(i)
	}
	errs := make([]error, b.Count())
	for _, i := range b.Verify(sys.CPU().Workers()) {
		errs[i] = fmt.Errorf("core: batch item %d input corrupted since submission (slab checksum mismatch)", i)
	}
	return factorize(decomp, sys, opts, as, injs, errs, true, newLadder)
}

// unpack splits a finished batch into its per-item factors, reports, and
// errors; a failed item's factor and report are nil.
func unpack(items []*runItem) (outs []*matrix.Dense, ress []*Result, errs []error) {
	outs = make([]*matrix.Dense, len(items))
	ress = make([]*Result, len(items))
	errs = make([]error, len(items))
	for i, it := range items {
		if errs[i] = it.err; it.err == nil {
			outs[i], ress[i] = it.out, it.es.res
		}
	}
	return outs, ress, errs
}

// CholeskyBatch factorizes every item of the slab with the protected
// blocked Cholesky driver in one batched dispatch (see the batched-driver
// comment at the top of this file). It returns the per-item gathered
// factors, reports, and errors — outs[i]/ress[i] are nil when errs[i] is
// set — plus a batch-level error for invalid options or a fail-stop abort,
// which voids the whole dispatch.
func CholeskyBatch(sys *hetsim.System, b *batch.Batch, opts Options, injs []*fault.Injector) (outs []*matrix.Dense, ress []*Result, errs []error, err error) {
	items, err := batched("cholesky", sys, b, opts, injs, newCholLadder)
	if err != nil {
		return nil, nil, nil, err
	}
	outs, ress, errs = unpack(items)
	return outs, ress, errs, nil
}

// LUBatch is CholeskyBatch for the protected LU driver; pivs[i] is item
// i's pivot sequence.
func LUBatch(sys *hetsim.System, b *batch.Batch, opts Options, injs []*fault.Injector) (outs []*matrix.Dense, pivs [][]int, ress []*Result, errs []error, err error) {
	items, err := batched("lu", sys, b, opts, injs, newLULadder)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	outs, ress, errs = unpack(items)
	pivs = make([][]int, len(items))
	for i, it := range items {
		if it.err == nil {
			pivs[i] = it.l.(*luLadder).piv
		}
	}
	return outs, pivs, ress, errs, nil
}

// QRBatch is CholeskyBatch for the protected Householder QR driver;
// taus[i] is item i's reflector coefficients.
func QRBatch(sys *hetsim.System, b *batch.Batch, opts Options, injs []*fault.Injector) (outs []*matrix.Dense, taus [][]float64, ress []*Result, errs []error, err error) {
	items, err := batched("qr", sys, b, opts, injs, newQRLadder)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	outs, ress, errs = unpack(items)
	taus = make([][]float64, len(items))
	for i, it := range items {
		if it.err == nil {
			taus[i] = it.l.(*qrLadder).tau
		}
	}
	return outs, taus, ress, errs, nil
}
