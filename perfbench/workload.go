package main

import (
	"fmt"
	"time"

	"ftla"
	"ftla/internal/hetsim"
	"ftla/internal/service"
)

// job is one generated unit of work. Everything in it depends only on the
// workload seed and the job's index.
type job struct {
	decomp service.Decomp
	// inputID names the input matrix within its source, e.g. "lu/1".
	inputID string
	a       *ftla.Matrix
	// b is a right-hand side the job asks the service to solve, nil if
	// none; probe is the right-hand side of the benchmark's own check.
	b, probe []float64
	cfg      ftla.Config
	// fault describes the fault plan in cfg, "" for a clean job.
	fault   string
	noCache bool
}

// source generates a workload's jobs; job(i) is a pure function of the
// seed and i.
type source interface {
	job(i int) job
}

// runner is a set-up workload, ready to measure.
type runner interface {
	// measure runs the workload for about d. With a non-nil tracer it
	// records spans at every layer boundary it can see.
	measure(d time.Duration, tr *tracer) *measurement
	// pairs runs the pairing phase for about d.
	pairs(d time.Duration) *pairing
	close()
}

// workload is one benchmark workload.
type workload struct {
	name string
	// setups is how many times an untraced run sets the workload up;
	// setup_s is the median.
	setups int
	// inputs generates the seeded job source; it is not timed.
	inputs func(seed uint64) source
	// setup builds the program's objects and warms them up; it is
	// setup_s.
	setup func(src source) (runner, error)
}

var workloads = []*workload{
	{name: "factor_large", setups: 3, inputs: factorInputs, setup: factorSetup},
	{name: "serve_burst", setups: 5, inputs: burstInputs, setup: burstSetup},
	{name: "cluster_faults", setups: 3, inputs: clusterInputs, setup: clusterSetup},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// factor_large: one caller, direct library calls cycling Cholesky, LU and
// QR over a small fixed input set on one reused, Reset system.
const (
	factorN         = 1024
	factorNB        = 64
	factorGPUs      = 2
	factorPerDecomp = 2 // inputs per decomposition, cycled
)

func factorConfig() ftla.Config {
	return ftla.Config{
		GPUs: factorGPUs, NB: factorNB, Lookahead: 1,
		Protection: ftla.FullChecksum, Scheme: ftla.NewScheme, Kernel: ftla.OptKernel,
	}
}

type factorSource struct {
	a     [3][factorPerDecomp]*ftla.Matrix
	probe [3][factorPerDecomp][]float64
}

func factorInputs(seed uint64) source {
	s := &factorSource{}
	for d := range s.a {
		for k := range s.a[d] {
			s.a[d][k] = genMatrix(service.Decomp(d), factorN, subSeed(seed, 1, uint64(d*factorPerDecomp+k)))
			s.probe[d][k] = genVector(factorN, subSeed(seed, 2, uint64(d*factorPerDecomp+k)))
		}
	}
	return s
}

func (s *factorSource) job(i int) job {
	d, k := i%3, (i/3)%factorPerDecomp
	return job{
		decomp: service.Decomp(d), inputID: fmt.Sprintf("%s/%d", service.Decomp(d), k),
		a: s.a[d][k], probe: s.probe[d][k], cfg: factorConfig(),
	}
}

type factorRunner struct {
	src source
	sys *hetsim.System
}

// factorSetup builds the system and warms it with one call per input.
func factorSetup(src source) (runner, error) {
	r := &factorRunner{src: src, sys: ftla.NewSystem(factorConfig())}
	for i := 0; i < 3*factorPerDecomp; i++ {
		j := src.job(i)
		r.sys.Reset()
		f, err := callDirect(r.sys, j)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", j.inputID, err)
		}
		if !verified(j.a, f, j.probe, nil, nil) {
			return nil, fmt.Errorf("warm-up %s: factor fails the solve check", j.inputID)
		}
	}
	return r, nil
}

// callDirect runs j's decomposition on sys through the public library.
func callDirect(sys *hetsim.System, j job) (*service.Factorization, error) {
	f := &service.Factorization{Decomp: j.decomp}
	var err error
	switch j.decomp {
	case service.Cholesky:
		f.Chol, err = ftla.CholeskyOn(sys, j.a, j.cfg)
	case service.LU:
		f.LU, err = ftla.LUOn(sys, j.a, j.cfg)
	default:
		f.QR, err = ftla.QROn(sys, j.a, j.cfg)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (r *factorRunner) measure(d time.Duration, tr *tracer) *measurement {
	rec := startPhase("closed-1", nil)
	end := time.Now().Add(d)
	// Only whole Cholesky-LU-QR cycles, so every run has the same mix.
	for i := 0; i%3 != 0 || time.Now().Before(end); i++ {
		j := r.src.job(i)
		t0 := time.Now()
		r.sys.Reset()
		c0 := time.Now()
		f, err := callDirect(r.sys, j)
		t1 := time.Now()
		s := sample{decomp: j.decomp, inputID: j.inputID, lat: t1.Sub(t0).Seconds(), span: t1.Sub(t0).Seconds(), gpuBusy: -1, outcome: "error"}
		if err == nil {
			s.ran, s.report, s.core = true, f.Report(), t1.Sub(c0).Seconds()
			s.ok = verified(j.a, f, j.probe, nil, nil)
			s.outcome = s.report.OutcomeOf(s.ok).String()
			s.gpuBusy = gpuBusy(r.sys)
		}
		rec.add(s)
		id := tr.request(t0, t1)
		tr.span("core."+j.decomp.String(), id, "request", c0, t1)
	}
	p := rec.finish()
	return &measurement{lat: p, thr: p, perCall: true}
}

func (r *factorRunner) close() {}

// gpuBusy is the mean GPU overlap utilization of the last run on sys.
func gpuBusy(sys *hetsim.System) float64 {
	var tot float64
	n := 0
	for _, st := range sys.Utilization() {
		if st.Name != "CPU" && st.Name != "PCIe" {
			tot += st.Util
			n++
		}
	}
	return ratio(tot, float64(n))
}
