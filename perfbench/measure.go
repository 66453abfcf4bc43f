package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"ftla"
	"ftla/internal/hetsim"
	"ftla/internal/obs"
	"ftla/internal/service"
)

// sample is one job as the benchmark saw it. Times are in seconds.
type sample struct {
	decomp  service.Decomp
	inputID string
	// lat is the end-to-end latency: from the call (closed loop) or from
	// the moment the job was due (open loop) until its result was seen.
	lat float64
	// span is the request span: from the call or Submit until done.
	span float64
	ok   bool
	// outcome is the ABFT outcome class of the result, or "error",
	// "rejected" or "unverified" when there is no verified result.
	outcome string
	// ran reports that a decomposition ran for the job (not a cache hit);
	// report is then the report of the run that served it.
	ran    bool
	report *ftla.Report
	// core is the core span: the ftla.*On call for direct calls,
	// Report.Wall for service jobs.
	core float64
	// wait and run are JobResult.Wait and Run (0 for direct calls).
	wait, run float64
	attempts  int
	// gpuBusy is the mean GPU overlap utilization of the run, read from
	// hetsim.System after a direct call; -1 when the system is not visible.
	gpuBusy float64
	// late is how late the open-loop generator submitted the job.
	late float64
}

// phase is one measured stretch of a workload with the counter deltas the
// program exposes over it.
type phase struct {
	name    string
	samples []sample
	wall    float64
	obs     obs.Snapshot // obs.Default diff
	svc     svcDelta
	devices []hetsim.DeviceStat // scheduler pool utilization at the end
	rt      rtDelta
}

// svcDelta holds the scheduler counters that moved over a phase.
type svcDelta struct {
	cacheHits, cacheMisses         uint64
	systemsCreated, systemsReused  uint64
	batchDispatches, jobsCoalesced uint64
}

func svcDiff(a, b service.Stats) svcDelta {
	return svcDelta{
		cacheHits: b.CacheHits - a.CacheHits, cacheMisses: b.CacheMisses - a.CacheMisses,
		systemsCreated: b.SystemsCreated - a.SystemsCreated, systemsReused: b.SystemsReused - a.SystemsReused,
		batchDispatches: b.BatchDispatches - a.BatchDispatches, jobsCoalesced: b.JobsCoalesced - a.JobsCoalesced,
	}
}

// rtDelta holds the Go runtime figures that moved over a phase.
type rtDelta struct {
	allocBytes    float64
	gcCPU, allCPU float64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// recorder collects the samples of one phase from any goroutine.
type recorder struct {
	name  string
	sched *service.Scheduler
	t0    time.Time
	obs0  obs.Snapshot
	svc0  service.Stats
	rt0   [3]float64

	mu      sync.Mutex
	samples []sample
}

// startPhase snapshots every counter source; sched may be nil.
func startPhase(name string, sched *service.Scheduler) *recorder {
	r := &recorder{name: name, sched: sched, obs0: obs.Default().Snapshot(), rt0: readRuntime()}
	if sched != nil {
		r.svc0 = sched.Stats()
	}
	r.t0 = time.Now()
	return r
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// finish closes the phase; every goroutine that adds samples must have
// returned.
func (r *recorder) finish() *phase {
	wall := time.Since(r.t0).Seconds()
	rt := readRuntime()
	p := &phase{
		name: r.name, samples: r.samples, wall: wall,
		obs: obs.Default().Snapshot().Diff(r.obs0),
		rt:  rtDelta{allocBytes: rt[0] - r.rt0[0], gcCPU: rt[1] - r.rt0[1], allCPU: rt[2] - r.rt0[2]},
	}
	if r.sched != nil {
		st := r.sched.Stats()
		p.svc = svcDiff(r.svc0, st)
		p.devices = st.Devices
	}
	return p
}

func (p *phase) verified() int {
	n := 0
	for _, s := range p.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// latencies lists the latency of every job that got a result; refused
// jobs have none and count only as failed.
func (p *phase) latencies() []float64 {
	out := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		if s.outcome != "rejected" {
			out = append(out, s.lat)
		}
	}
	return out
}

// measurement is what one measure call returns: the phase the latency
// metrics come from and the closed-loop phase jobs_per_s comes from (the
// same phase for closed-loop workloads).
type measurement struct {
	lat, thr *phase
	// perCall marks a single-caller closed loop, whose throughput is
	// verified jobs over the summed call time (the benchmark's own checks
	// between calls are not the program's time).
	perCall bool
}

func (m *measurement) phases() []*phase {
	if m.thr == m.lat {
		return []*phase{m.lat}
	}
	return []*phase{m.lat, m.thr}
}

func (m *measurement) attempted() int {
	n := 0
	for _, p := range m.phases() {
		n += len(p.samples)
	}
	return n
}

func (m *measurement) failed() int {
	n := 0
	for _, p := range m.phases() {
		n += len(p.samples) - p.verified()
	}
	return n
}

func (m *measurement) latencyP50() float64 { return median(m.lat.latencies()) }

func (m *measurement) jobsPerSec() float64 {
	if m.perCall {
		spans := 0.0
		for _, s := range m.thr.samples {
			spans += s.span
		}
		return ratio(float64(m.thr.verified()), spans)
	}
	return ratio(float64(m.thr.verified()), m.thr.wall)
}

// simMakespans lists Report.SimMakespan of every job of the latency phase
// a decomposition ran for. A job served in a coalesced dispatch reports the
// whole dispatch's makespan: the simulated time until its result existed.
func (m *measurement) simMakespans() []float64 {
	var out []float64
	for _, s := range m.lat.samples {
		if s.ran && s.report != nil {
			out = append(out, s.report.SimMakespan)
		}
	}
	return out
}

// result wraps metrics with the check tallies of every phase.
func (m *measurement) result(ms map[string]metric) result {
	att, failed := m.attempted(), m.failed()
	return result{Correct: failed == 0 && att > 0, Attempted: att, Failed: failed, Metrics: ms}
}

// notes are the human-readable lines printed before the result: the
// wall-clock throughput and latency with the tail's percentile and sample
// count, phase sizes, and the outcome tally.
func (m *measurement) notes() []string {
	tv, pct := tail(m.lat.latencies())
	out := []string{fmt.Sprintf("wall: jobs_per_s %.6g, latency_p50_s %.6g, latency_tail_s %.6g is p%.2f of %d samples (%d beyond)",
		m.jobsPerSec(), m.latencyP50(), tv, pct, len(m.lat.samples), min(tailBeyond, len(m.lat.samples)))}
	tally := map[string]int{}
	for _, p := range m.phases() {
		out = append(out, fmt.Sprintf("phase %s: %d jobs, %d verified, %.3fs wall", p.name, len(p.samples), p.verified(), p.wall))
		for _, s := range p.samples {
			tally[s.outcome]++
		}
	}
	var parts []string
	for _, k := range sortedKeys(tally) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, tally[k]))
	}
	return append(out, "outcomes "+strings.Join(parts, " "))
}

// endToEnd derives the end-to-end metrics from an untraced measurement,
// its pairing phase, the durations of its set-ups and the process's peak
// memory. Wall-clock throughput and latency are notes here and per-layer
// metrics of the traced run: on a shared host they drift by more than
// any bound a change could be held to.
func endToEnd(m *measurement, p *pairing, setups []float64, memMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"mem_peak_mb": {memMB, "MB"},
		"ft_overhead": {p.overhead(), "ratio"},
		// The mean, not the median: the simulated clock is exact, so a
		// median lands on one decomposition's makespan and reads the same
		// on every run, while the mean also shows the job mix and batching.
		"sim_makespan_s": {mean(m.simMakespans()), "sim_s"},
		"verified_share": {ratio(float64(m.attempted()-m.failed()), float64(m.attempted())), "ratio"},
	}
}

// wallMetrics are the wall-clock throughput and latency of a measurement.
func wallMetrics(m *measurement) map[string]metric {
	tv, _ := tail(m.lat.latencies())
	return map[string]metric{
		"wall.jobs_per_s":     {m.jobsPerSec(), "1/s"},
		"wall.latency_p50_s":  {m.latencyP50(), "s"},
		"wall.latency_tail_s": {tv, "s"},
	}
}

// peakMemMB is the process's peak resident set (VmHWM) in MB, or the Go
// runtime's mapped memory where /proc is not available.
func peakMemMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
