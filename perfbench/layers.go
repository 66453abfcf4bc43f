package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftla"
	"ftla/internal/blas"
	"ftla/internal/checksum"
	"ftla/internal/lapack"
	"ftla/internal/matrix"
	"ftla/internal/obs"
	"ftla/internal/service"
)

// layerMetric names one per-layer metric; README.md lists the end-to-end
// metric and workload each one should move.
type layerMetric struct{ name, unit, better string }

// layerMetrics is every metric a traced run prints, on every workload; a
// layer a workload does not exercise reads 0 there.
var layerMetrics = []layerMetric{
	{"blas.gemm_nn_gflops", "GFLOP/s", "higher"},
	{"blas.gemm_tn_gflops", "GFLOP/s", "higher"},
	{"blas.syrk_gflops", "GFLOP/s", "higher"},
	{"blas.trsm_gflops", "GFLOP/s", "higher"},
	{"blas.gemm_small_gflops", "GFLOP/s", "higher"},
	{"blas.flops_per_job", "flop", "lower"},
	{"lapack.panel_s", "s", "lower"},
	{"checksum.encode_gbps", "GB/s", "higher"},
	{"checksum.verify_gbps", "GB/s", "higher"},
	{"checksum.wall_share", "ratio", "lower"},
	{"checksum.blocks_verified_per_job", "count", "lower"},
	{"hetsim.transfer_gbps", "GB/s", "higher"},
	{"hetsim.pcie_bytes_per_job", "B", "lower"},
	{"hetsim.gpu_busy_share", "ratio", "higher"},
	{"hetsim.internode_bytes_per_job", "B", "lower"},
	{"hetsim.retransmits_per_job", "count", "lower"},
	{"hetsim.sim_spread", "ratio", "lower"},
	{"core.cholesky_s", "s", "lower"},
	{"core.lu_s", "s", "lower"},
	{"core.qr_s", "s", "lower"},
	{"core.recover_s_per_job", "s", "lower"},
	{"core.reconstructions_per_job", "count", "lower"},
	{"core.parity_bytes_per_job", "B", "lower"},
	{"core.rollbacks_per_job", "count", "lower"},
	{"core.moved_columns_per_job", "count", "lower"},
	{"batch.mean_size", "count", "higher"},
	{"service.queue_wait_p50_s", "s", "lower"},
	{"service.run_p50_s", "s", "lower"},
	{"service.self_s", "s", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.pool_reuse_ratio", "ratio", "higher"},
	{"service.attempts_per_job", "count", "lower"},
	{"go.alloc_mb_per_job", "MB", "lower"},
	{"go.gc_cpu_share", "ratio", "lower"},
	{"loadgen.late_p99_s", "s", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"wall.jobs_per_s", "1/s", "higher"},
	{"wall.latency_p50_s", "s", "lower"},
	{"wall.latency_tail_s", "s", "lower"},
}

func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// perLayer derives the counter and span metrics from the latency phase of
// a traced measurement. Counts are per attempted job and come from public
// counters: obs.Default diffs, service.Stats diffs, reports and
// runtime/metrics.
func perLayer(m *measurement) map[string]metric {
	p := m.lat
	n := float64(len(p.samples))
	per := func(counter string) float64 { return ratio(float64(counterSum(p.obs, counter)), n) }
	var (
		checked, recoverS, attempts, verifiedRan float64
		busy, waits, runs, selfs, lates          []float64
		core                                     = map[service.Decomp][]float64{}
		sims                                     = map[string][]float64{}
	)
	for _, s := range p.samples {
		if s.outcome == "rejected" {
			lates = append(lates, s.late)
			continue
		}
		coreWall := 0.0
		if s.ran && s.report != nil {
			checked += float64(s.report.Counter.TotalChecked())
			recoverS += s.report.RecoverT.Seconds()
			coreWall = s.core
			core[s.decomp] = append(core[s.decomp], s.core)
			sims[s.inputID] = append(sims[s.inputID], s.report.SimMakespan)
			attempts += float64(s.attempts)
			if s.ok {
				verifiedRan++
			}
		}
		if s.gpuBusy >= 0 {
			busy = append(busy, s.gpuBusy)
		}
		if !m.perCall {
			waits = append(waits, s.wait)
			runs = append(runs, s.run)
			selfs = append(selfs, s.span-s.wait-coreWall)
			lates = append(lates, s.late)
		}
	}
	if !m.perCall {
		for _, d := range p.devices {
			if d.Name != "CPU" && d.Name != "PCIe" {
				busy = append(busy, d.Util)
			}
		}
	}
	simSpread := 0.0
	if m.perCall { // only direct calls repeat an input with a fresh run
		for _, v := range sims {
			simSpread = max(simSpread, spread(v))
		}
	}
	enc, ver := p.obs.PhaseSeconds("encode"), p.obs.PhaseSeconds("verify")
	phaseWall := enc + ver + p.obs.PhaseSeconds("factorize") + p.obs.PhaseSeconds("recover")
	svc := p.svc
	vals := map[string]float64{
		"blas.flops_per_job":               per(obs.MetricBlasFlops),
		"checksum.wall_share":              ratio(enc+ver, phaseWall),
		"checksum.blocks_verified_per_job": checked / n,
		"hetsim.pcie_bytes_per_job":        per(obs.MetricPCIeBytes),
		"hetsim.gpu_busy_share":            ratio(sum(busy), float64(len(busy))),
		"hetsim.internode_bytes_per_job":   per(obs.MetricInternodeBytes),
		"hetsim.retransmits_per_job":       per(obs.MetricTransferRetransmits),
		"hetsim.sim_spread":                simSpread,
		"core.cholesky_s":                  median(core[service.Cholesky]),
		"core.lu_s":                        median(core[service.LU]),
		"core.qr_s":                        median(core[service.QR]),
		"core.recover_s_per_job":           recoverS / n,
		"core.reconstructions_per_job":     per(obs.MetricReconstructions),
		"core.parity_bytes_per_job":        per(obs.MetricParityBytes),
		"core.rollbacks_per_job":           per(obs.MetricRollbacks),
		"core.moved_columns_per_job":       per(obs.MetricRebalanceMoved),
		"batch.mean_size":                  ratio(float64(svc.jobsCoalesced), float64(svc.batchDispatches)),
		"service.queue_wait_p50_s":         median(waits),
		"service.run_p50_s":                median(runs),
		"service.self_s":                   median(selfs),
		"service.cache_hit_ratio":          ratio(float64(svc.cacheHits), float64(svc.cacheHits+svc.cacheMisses)),
		"service.pool_reuse_ratio":         ratio(float64(svc.systemsReused), float64(svc.systemsCreated+svc.systemsReused)),
		"service.attempts_per_job":         ratio(attempts, verifiedRan),
		"go.alloc_mb_per_job":              p.rt.allocBytes / n / (1 << 20),
		"go.gc_cpu_share":                  ratio(p.rt.gcCPU, p.rt.allCPU),
		"loadgen.late_p99_s":               quantile(lates, 0.99),
	}
	out := make(map[string]metric, len(vals))
	for k, v := range vals {
		out[k] = metric{v, layerUnit(k)}
	}
	return out
}

// traceMetrics assembles a traced run's per-layer metrics: the counters
// and spans of its traced part, the kernel pass, and the tracing overhead,
// the relative change of median latency from the untraced latencies
// plainLat of the same run.
func traceMetrics(plainLat []float64, traced *measurement, kernels map[string]metric) map[string]metric {
	out := perLayer(traced)
	for _, ms := range []map[string]metric{kernels, wallMetrics(traced)} {
		for k, v := range ms {
			out[k] = v
		}
	}
	overhead := 0.0
	if base := median(plainLat); base > 0 {
		overhead = (traced.latencyP50() - base) / base
	}
	out["trace.overhead_share"] = metric{overhead, layerUnit("trace.overhead_share")}
	return out
}

// counterSum adds every series of a counter family in a snapshot (all
// label values).
func counterSum(s obs.Snapshot, name string) uint64 {
	var t uint64
	for k, v := range s.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// kernelReps is how many times the kernel pass times each call.
const kernelReps = 5

// kernelPass times direct calls into blas, lapack, checksum and hetsim at
// the workloads' shapes: factor_large's trailing update (n×NB·NB×n) and
// panel, and serve_burst's small update and transferred panel. It reports
// the median rate of each.
func kernelPass(tr *tracer) map[string]metric {
	n, nb := factorN, factorNB
	rng := matrix.NewRNG(0x6b65726e)
	panel := matrix.Random(n, nb, rng)  // n×NB
	panelT := matrix.Random(nb, n, rng) // NB×n
	c := matrix.Random(n, n, rng)
	// timeIt times body once per rep. With src set, each rep works on its
	// own copy of src, made before the clock starts.
	timeIt := func(name string, src *matrix.Dense, body func(m *matrix.Dense)) float64 {
		ts := make([]float64, kernelReps)
		for i := range ts {
			var m *matrix.Dense
			if src != nil {
				m = src.Clone()
			}
			t0 := time.Now()
			body(m)
			t1 := time.Now()
			ts[i] = t1.Sub(t0).Seconds()
			tr.span("kernel."+name, 0, "", t0, t1)
		}
		return median(ts)
	}
	gflops := func(flops, secs float64) float64 { return ratio(flops, secs) / 1e9 }
	big := 2 * float64(n) * float64(n) * float64(nb)

	nn := timeIt("blas.gemm_nn", nil, func(*matrix.Dense) { blas.Gemm(false, false, -1, panel, panelT, 1, c) })
	tn := timeIt("blas.gemm_tn", nil, func(*matrix.Dense) { blas.Gemm(true, false, -1, panelT, panelT, 1, c) })
	syrk := timeIt("blas.syrk", nil, func(*matrix.Dense) { blas.Syrk(true, false, -1, panel, 1, c) })
	tri := matrix.RandomSPD(nb, rng)
	if err := lapack.Potf2(tri); err != nil {
		panic(err) // a generated SPD block always factors
	}
	trsm := timeIt("blas.trsm", panel, func(m *matrix.Dense) { blas.Trsm(blas.Right, true, true, false, 1, tri, m) })

	sa, sb := matrix.Random(burstN, burstNB, rng), matrix.Random(burstNB, burstN, rng)
	sc := matrix.Random(burstN, burstN, rng)
	const smallCalls = 50
	small := timeIt("blas.gemm_small", nil, func(*matrix.Dense) {
		for i := 0; i < smallCalls; i++ {
			blas.Gemm(false, false, -1, sa, sb, 1, sc)
		}
	})

	spd := matrix.RandomSPD(nb, rng)
	potf2 := timeIt("lapack.potf2", spd, func(m *matrix.Dense) {
		if err := lapack.Potf2(m); err != nil {
			panic(err) // a generated SPD block always factors
		}
	})
	lu := matrix.Random(n, nb, rng)
	getf2 := timeIt("lapack.getf2", lu, func(m *matrix.Dense) {
		if err := lapack.Getf2(m, make([]int, nb)); err != nil {
			panic(err) // a uniform random panel is nonsingular
		}
	})
	geqr2 := timeIt("lapack.geqr2", lu, func(m *matrix.Dense) { lapack.Geqr2(m, make([]float64, nb)) })

	colChk := matrix.NewDense(checksum.ColDims(n, n, nb))
	rowChk := matrix.NewDense(checksum.RowDims(n, n, nb))
	encode := timeIt("checksum.encode", nil, func(*matrix.Dense) {
		checksum.EncodeCol(checksum.OptKernel, 1, c, nb, colChk)
		checksum.EncodeRow(checksum.OptKernel, 1, c, nb, rowChk)
	})
	verify := timeIt("checksum.verify", nil, func(*matrix.Dense) {
		if len(checksum.VerifyCol(1, c, nb, colChk, 1e-8)) > 0 || len(checksum.VerifyRow(1, c, nb, rowChk, 1e-8)) > 0 {
			panic("perfbench: checksum mismatch on unmodified data")
		}
	})
	matBytes := 2 * 8 * float64(n) * float64(n) // both directions read the matrix once

	sys := ftla.NewSystem(burstConfig())
	src := sys.CPU().AllocFrom(sa)
	dst := sys.GPU(0).Alloc(burstN, burstNB)
	const transfers = 200
	xfer := timeIt("hetsim.transfer_reliable", nil, func(*matrix.Dense) {
		for i := 0; i < transfers; i++ {
			sys.TransferReliable(src, dst)
		}
	})

	vals := map[string]float64{
		"blas.gemm_nn_gflops":    gflops(big, nn),
		"blas.gemm_tn_gflops":    gflops(big, tn),
		"blas.syrk_gflops":       gflops(big/2, syrk),
		"blas.trsm_gflops":       gflops(float64(nb)*float64(nb)*float64(n), trsm),
		"blas.gemm_small_gflops": gflops(smallCalls*2*burstN*burstN*burstNB, small),
		"lapack.panel_s":         (potf2 + getf2 + geqr2) / 3,
		"checksum.encode_gbps":   ratio(matBytes, encode) / 1e9,
		"checksum.verify_gbps":   ratio(matBytes, verify) / 1e9,
		"hetsim.transfer_gbps":   ratio(transfers*8*burstN*burstNB, xfer) / 1e9,
	}
	out := make(map[string]metric, len(vals))
	for k, v := range vals {
		out[k] = metric{v, layerUnit(k)}
	}
	return out
}

// span is one traced interval, in seconds from the start of the run. Spans
// of one request share a job id; parent names the enclosing span.
type span struct {
	Name   string  `json:"name"`
	Job    uint64  `json:"job"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs measure.
type tracer struct {
	t0   time.Time
	jobs atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request records a root request span and returns its job id.
func (t *tracer) request(start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	id := t.jobs.Add(1)
	t.span("request", id, "", start, end)
	return id
}

func (t *tracer) span(name string, job uint64, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Job: job, Parent: parent, Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write saves the spans with the run's metadata under .bench_build/traces
// in the working directory and returns the file's path.
func (t *tracer) write(meta hostMeta) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", meta.Workload, meta.Seed))
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Meta  hostMeta `json:"meta"`
		Spans []span   `json:"spans"`
	}{meta, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
