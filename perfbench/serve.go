package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"ftla"
	"ftla/internal/core"
	"ftla/internal/fault"
	"ftla/internal/service"
)

// serveWorkers pins the scheduler's worker count to the host's two cores
// instead of the GOMAXPROCS/2 default; closed loops run loopClients
// clients.
const (
	serveWorkers = 2
	loopClients  = 2
)

// serve_burst: bursts of same-decomposition small jobs offered on a fixed
// schedule to an in-process scheduler with the default batch size and
// cache, then a closed loop of two clients.
const (
	burstN    = 128
	burstNB   = 32
	burstGPUs = 2
	// burstSize jobs of one decomposition are due at the same instant.
	burstSize = 4
	// burstPeriod spaces the bursts: 4 jobs every 18ms offer 222 jobs/s.
	// On a shared 2-core Xeon host (GOMAXPROCS 2) the capacity for this
	// schedule was 800–1000 jobs/s when the host was quiet (a 5ms period
	// kept up, a 4ms one queued until admission refused jobs) and about
	// half that when other tenants halved its speed. 222 jobs/s is about
	// half the lower figure, so a slower host does not saturate the queue.
	burstPeriod = 18 * time.Millisecond
	// The first job of each burst reuses one of burstHot operators per
	// decomposition (12 in all, well under the scheduler's 64-entry cache),
	// so it hits. The other jobs cycle through a pool of burstCold
	// operators: 71 other cold operators come between two uses of one,
	// more than the cache holds, so they miss.
	burstHot  = 4
	burstCold = 96
	burstWarm = 16 // cold operators used only by the warm-up
	// burstWarmJobs of them run during set-up in groups of burstWarmGroup
	// (the default BatchMax), long enough for set-up to time steadily.
	burstWarmJobs  = 320
	burstWarmGroup = 16
	burstRHSEach   = 3 // every third job carries a right-hand side
	// The open loop runs for burstOpen (at most half the measured time),
	// the closed loop that gives jobs_per_s for the rest. A fixed open-loop
	// length keeps the tail at the same percentile, about p99.4, whatever
	// the run length.
	burstOpen = 8 * time.Second
	// closedBase offsets the closed loop's job indices from the open
	// loop's.
	closedBase = 1 << 24
	// warmBase offsets warm-up job indices from measured ones.
	warmBase = 1 << 28
)

func burstConfig() ftla.Config {
	return ftla.Config{GPUs: burstGPUs, NB: burstNB}
}

type burstSource struct {
	seed  uint64
	hot   [3][burstHot]*ftla.Matrix
	cold  []*ftla.Matrix // symmetric positive definite: valid for all three
	warm  []*ftla.Matrix
	probe []float64
}

func burstInputs(seed uint64) source {
	s := &burstSource{seed: seed, probe: genVector(burstN, subSeed(seed, 3, 0))}
	for d := range s.hot {
		for k := range s.hot[d] {
			s.hot[d][k] = genMatrix(service.Decomp(d), burstN, subSeed(seed, 4, uint64(d*burstHot+k)))
		}
	}
	for k := 0; k < burstCold; k++ {
		s.cold = append(s.cold, ftla.RandomSPD(burstN, subSeed(seed, 5, uint64(k))))
	}
	for k := 0; k < burstWarm; k++ {
		s.warm = append(s.warm, ftla.RandomSPD(burstN, subSeed(seed, 6, uint64(k))))
	}
	return s
}

// job i is job k = i%burstSize of burst b = i/burstSize. Bursts cycle the
// decompositions; the first job of a burst takes the next hot operator of
// its decomposition (starting at a seeded offset), the others the cold
// pool. Warm-up indices (≥ warmBase) take the warm pool with the cache
// bypassed, so the measured cold stream always misses.
func (s *burstSource) job(i int) job {
	b, k := i/burstSize, i%burstSize
	d := service.Decomp(b % 3)
	j := job{decomp: d, probe: s.probe, cfg: burstConfig()}
	switch {
	case i >= warmBase:
		w := (i - warmBase) % burstWarm
		j.inputID, j.a, j.noCache = fmt.Sprintf("warm/%d", w), s.warm[w], true
	case k == 0:
		h := (int(subSeed(s.seed, 8, 0)%burstHot) + b/3) % burstHot
		j.inputID, j.a = fmt.Sprintf("hot/%s/%d", d, h), s.hot[d][h]
	default:
		c := i % burstCold
		j.inputID, j.a = fmt.Sprintf("cold/%d", c), s.cold[c]
	}
	if i%burstRHSEach == 0 {
		j.b = genVector(burstN, subSeed(s.seed, 9, uint64(i)))
	}
	return j
}

type serviceRunner struct {
	src   source
	sched *service.Scheduler
	// open selects the open-loop-then-closed-loop measurement of
	// serve_burst; otherwise measure is one closed loop.
	open bool
}

// burstSetup starts the scheduler, fills the cache with every hot
// operator, and runs the warm pool through the batched path.
func burstSetup(src source) (runner, error) {
	s := src.(*burstSource)
	r := &serviceRunner{src: src, open: true, sched: service.New(service.Config{Workers: serveWorkers, Seed: s.seed})}
	var jobs []job
	for d := range s.hot {
		for k := range s.hot[d] {
			jobs = append(jobs, job{decomp: service.Decomp(d), inputID: fmt.Sprintf("hot/%s/%d", service.Decomp(d), k), a: s.hot[d][k], probe: s.probe, cfg: burstConfig()})
		}
	}
	for i := 0; i < burstWarmJobs; i++ {
		jobs = append(jobs, src.job(warmBase+i))
	}
	for lo := 0; lo < len(jobs); lo += burstWarmGroup {
		if err := r.runAll(jobs[lo:min(lo+burstWarmGroup, len(jobs))]); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, nil
}

// runAll submits jobs at once and waits for all of them, failing on any
// job that does not end verified.
func (r *serviceRunner) runAll(jobs []job) error {
	hs := make([]*service.JobHandle, len(jobs))
	for i, j := range jobs {
		h, err := r.sched.Submit(context.Background(), specOf(j))
		if err != nil {
			return fmt.Errorf("%s: %w", j.inputID, err)
		}
		hs[i] = h
	}
	for i, h := range hs {
		res, err := h.Wait(context.Background())
		if err != nil {
			return fmt.Errorf("%s: %w", jobs[i].inputID, err)
		}
		if !verified(jobs[i].a, res.Factors, jobs[i].probe, jobs[i].b, res.X) {
			return fmt.Errorf("%s: factor fails the solve check", jobs[i].inputID)
		}
	}
	return nil
}

func specOf(j job) service.JobSpec {
	return service.JobSpec{Decomp: j.decomp, A: j.a, B: j.b, Config: j.cfg, NoCache: j.noCache}
}

func (r *serviceRunner) close() { r.sched.Close() }

func (r *serviceRunner) measure(d time.Duration, tr *tracer) *measurement {
	if !r.open {
		p := r.closedLoop(d, 0, tr)
		return &measurement{lat: p, thr: p}
	}
	o := min(burstOpen, d/2)
	open := r.openLoop(o, tr)
	closed := r.closedLoop(d-o, closedBase, tr)
	return &measurement{lat: open, thr: closed}
}

// pending is a submitted job awaiting its result.
type pending struct {
	j           job
	h           *service.JobHandle
	due, submit time.Time
}

// openLoop offers bursts on the fixed schedule for d: one goroutine submits
// each burst at its due time, one collects results as they complete. A
// job's latency runs from its due time, so a stall delays every later job's
// clock too.
func (r *serviceRunner) openLoop(d time.Duration, tr *tracer) *phase {
	rec := startPhase("open", r.sched)
	start := time.Now()
	intake := make(chan pending, burstSize) // one burst in flight to the collector
	go func() {
		defer close(intake)
		for b := 0; ; b++ {
			due := start.Add(time.Duration(b) * burstPeriod)
			if due.Sub(start) >= d {
				return
			}
			time.Sleep(time.Until(due))
			for k := 0; k < burstSize; k++ {
				j := r.src.job(b*burstSize + k)
				t := time.Now()
				h, err := r.sched.Submit(context.Background(), specOf(j))
				if err != nil {
					rec.add(sample{decomp: j.decomp, inputID: j.inputID, outcome: "rejected", late: t.Sub(due).Seconds()})
					continue
				}
				intake <- pending{j: j, h: h, due: due, submit: t}
			}
		}
	}()
	collect(intake, func(p pending, done time.Time) {
		rec.add(r.finishJob(p, done, tr))
	})
	return rec.finish()
}

// collect receives pending jobs from intake and calls finish for each as
// soon as it completes, until intake is closed and drained.
func collect(intake <-chan pending, finish func(p pending, done time.Time)) {
	var waiting []pending
	cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(intake)}}
	for open := true; open || len(waiting) > 0; {
		cases = cases[:1]
		if !open {
			cases[0].Chan = reflect.Value{} // a zero Chan is never selected
		}
		for _, p := range waiting {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(p.h.Done())})
		}
		i, v, ok := reflect.Select(cases)
		if i == 0 {
			if !ok {
				open = false
				continue
			}
			waiting = append(waiting, v.Interface().(pending))
			continue
		}
		done := time.Now()
		p := waiting[i-1]
		waiting = append(waiting[:i-1], waiting[i:]...)
		finish(p, done)
	}
}

// closedLoop runs loopClients clients for d, each submitting its next job
// when the previous one is done. Job indices start at base.
func (r *serviceRunner) closedLoop(d time.Duration, base int, tr *tracer) *phase {
	rec := startPhase("closed", r.sched)
	end := time.Now().Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(loopClients)
	for c := 0; c < loopClients; c++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				j := r.src.job(base + int(next.Add(1)-1))
				t := time.Now()
				h, err := r.sched.Submit(context.Background(), specOf(j))
				if err != nil {
					rec.add(sample{decomp: j.decomp, inputID: j.inputID, outcome: "rejected"})
					continue
				}
				<-h.Done()
				rec.add(r.finishJob(pending{j: j, h: h, due: t, submit: t}, time.Now(), tr))
			}
		}()
	}
	wg.Wait()
	return rec.finish()
}

// finishJob turns a completed job into a sample, checking its factor and
// solution, and records its spans.
func (r *serviceRunner) finishJob(p pending, done time.Time, tr *tracer) sample {
	s := sample{
		decomp: p.j.decomp, inputID: p.j.inputID, gpuBusy: -1,
		lat: done.Sub(p.due).Seconds(), span: done.Sub(p.submit).Seconds(),
		late: p.submit.Sub(p.due).Seconds(), outcome: "error",
	}
	res, err, _ := p.h.Poll()
	id := tr.request(p.due, done)
	tr.span("service", id, "request", p.submit, done)
	if err != nil {
		return s
	}
	s.wait, s.run, s.attempts = res.Wait.Seconds(), res.Run.Seconds(), res.Attempts
	// A factor the service itself classed as corrupt counts as failed
	// even if it passes the check.
	s.ok = res.Outcome < core.DetectedCorrupt && verified(p.j.a, res.Factors, p.j.probe, p.j.b, res.X)
	s.outcome = res.Outcome.String()
	if !s.ok {
		s.outcome = "unverified"
	}
	dispatch := p.submit.Add(res.Wait)
	runEnd := dispatch.Add(res.Run)
	tr.span("service.queue", id, "service", p.submit, dispatch)
	tr.span("service.run", id, "service", dispatch, runEnd)
	if s.ran = res.Attempts > 0; s.ran {
		s.report = res.Factors.Report()
		s.core = s.report.Wall.Seconds()
		tr.span("core."+p.j.decomp.String(), id, "service.run", runEnd.Add(-s.report.Wall), runEnd)
	}
	return s
}

// cluster_faults: two closed-loop clients through the scheduler with the
// cache bypassed, on a two-node cluster with one parity column per group.
// Every job carries one absorbable fault.
const (
	clusterN         = 512
	clusterNB        = 32
	clusterGPUs      = 4
	clusterNodes     = 2
	clusterPerDecomp = 2 // inputs per decomposition, cycled
)

func clusterConfig() ftla.Config {
	return ftla.Config{GPUs: clusterGPUs, NB: clusterNB, Nodes: clusterNodes, Redundancy: 1, Lookahead: 1}
}

type clusterSource struct {
	seed  uint64
	a     [3][clusterPerDecomp]*ftla.Matrix
	probe []float64
}

func clusterInputs(seed uint64) source {
	s := &clusterSource{seed: seed, probe: genVector(clusterN, subSeed(seed, 10, 0))}
	for d := range s.a {
		for k := range s.a[d] {
			s.a[d][k] = genMatrix(service.Decomp(d), clusterN, subSeed(seed, 11, uint64(d*clusterPerDecomp+k)))
		}
	}
	return s
}

// job i cycles the decompositions, and the fault classes every three jobs,
// so each class meets each decomposition; the fault's parameters are drawn
// from the seed.
func (s *clusterSource) job(i int) job {
	d, k := i%3, (i/3)%clusterPerDecomp
	j := job{
		decomp: service.Decomp(d), inputID: fmt.Sprintf("%s/%d", service.Decomp(d), k),
		a: s.a[d][k], probe: s.probe, cfg: clusterConfig(), noCache: true,
	}
	r := subSeed(s.seed, 12, uint64(i))
	pick := func(n int) int { v := int(r % uint64(n)); r /= uint64(n); return v }
	steps := clusterN / clusterNB
	switch (i / 3) % 4 {
	case 0: // one of the paper's soft errors, corrected online or retried
		spec := ftla.FaultSpec{
			Kind:      []fault.Kind{ftla.FaultCompute, ftla.FaultDRAM, ftla.FaultOnChip, ftla.FaultPCIe}[pick(4)],
			Op:        []fault.Op{ftla.OpPD, ftla.OpPU, ftla.OpTMU}[pick(3)],
			Part:      ftla.UpdatePart,
			Iteration: pick(steps - 1),
			Row:       -1, Col: -1, GPUTarget: pick(clusterGPUs),
		}
		inj := ftla.NewInjector(subSeed(s.seed, 13, uint64(i)))
		inj.Schedule(spec)
		j.cfg.Injector, j.fault = inj, "soft "+spec.Describe()
	case 1: // PCIe link corruption, absorbed by retransmission
		g := pick(clusterGPUs)
		plan := ftla.LinkFaultPlan{Mode: ftla.LinkCorrupt, AfterTransfers: pick(16), Every: 4 + pick(8)}
		j.cfg.LinkFault = map[int]ftla.LinkFaultPlan{g: plan}
		j.fault = fmt.Sprintf("link gpu%d %+v", g, plan)
	case 2: // whole-node loss, rebuilt from parity
		plan := ftla.NodeFaultPlan{AfterEpochs: 1 + pick(3)}
		j.cfg.NodeFault = map[int]ftla.NodeFaultPlan{1: plan}
		j.fault = fmt.Sprintf("node 1 %+v", plan)
	default: // straggler GPU with rebalancing on
		g := pick(clusterGPUs)
		plan := ftla.FailStopPlan{Mode: ftla.FailStraggler, Slowdown: float64(3 + pick(3))}
		j.cfg.FailStop = map[int]ftla.FailStopPlan{g: plan}
		j.cfg.Rebalance = ftla.RebalanceConfig{Every: 1}
		j.fault = fmt.Sprintf("straggler gpu%d %s", g, plan)
	}
	return j
}

// clusterSetup starts the scheduler and warms it with one job of every
// fault class and decomposition, loopClients at a time.
func clusterSetup(src source) (runner, error) {
	r := &serviceRunner{src: src, sched: service.New(service.Config{Workers: serveWorkers, Seed: src.(*clusterSource).seed})}
	for i := 0; i < 12; i += loopClients {
		if err := r.runAll([]job{src.job(warmBase + i), src.job(warmBase + i + 1)}); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, nil
}
