package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"ftla"
)

// The pairing phase gives ft_overhead, the wall-clock price of the
// workload's fault tolerance. Each pair runs one job as the workload
// defines it (checksums, parity, its fault plan) and the job's plain twin
// back to back, from one caller, alternating which goes first. Both jobs
// of a pair see the same host, so their ratio keeps steady on a shared
// host whose speed drifts by half over minutes, which no absolute wall
// time does.
const (
	// pairCycle jobs hold every job kind of every workload's mix once.
	pairCycle = 12
	// pairBase offsets paired job indices from the other phases'; it is a
	// multiple of pairCycle, below warmBase.
	pairBase = pairCycle << 22
)

// pairing is what the pairing phase returns.
type pairing struct {
	// ratios holds the protected job's wall time over its twin's, one per
	// pair whose jobs both verified.
	ratios  []float64
	samples []sample
	wall    float64
}

// twin is j with fault tolerance off: no checksums, no fault plan, no
// parity, one node, same matrix, decomposition and blocking.
func twin(j job) job {
	c := ftla.Unprotected(j.cfg.GPUs)
	c.NB, c.Lookahead = j.cfg.NB, j.cfg.Lookahead
	j.cfg, j.fault = c, ""
	j.inputID += "/plain"
	return j
}

// runPairs runs pairs for about d, in whole cycles of the job mix and at
// least one. call runs one job and returns its sample, whose span is the
// timed wall time.
func runPairs(d time.Duration, src source, call func(j job) sample) *pairing {
	p := &pairing{}
	t0 := time.Now()
	end := t0.Add(d)
	for i := 0; i == 0 || i%pairCycle != 0 || time.Now().Before(end); i++ {
		j := src.job(pairBase + i)
		var ft, plain sample
		if i%2 == 0 {
			ft, plain = call(j), call(twin(j))
		} else {
			plain, ft = call(twin(j)), call(j)
		}
		p.samples = append(p.samples, ft, plain)
		if ft.ok && plain.ok {
			p.ratios = append(p.ratios, ft.span/plain.span)
		}
	}
	p.wall = time.Since(t0).Seconds()
	return p
}

// overhead is the geometric mean of the pair ratios.
func (p *pairing) overhead() float64 {
	if len(p.ratios) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range p.ratios {
		s += math.Log(r)
	}
	return math.Exp(s / float64(len(p.ratios)))
}

// note is the line printed about the phase before the result.
func (p *pairing) note() string {
	return fmt.Sprintf("pairs: %d of %d verified in %.3fs wall, ratio p10/p50/p90 %.4g/%.4g/%.4g",
		len(p.ratios), len(p.samples)/2, p.wall, quantile(p.ratios, 0.1), median(p.ratios), quantile(p.ratios, 0.9))
}

func (p *pairing) verified() int {
	n := 0
	for _, s := range p.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// pairs runs the pairing phase with direct library calls on the reused
// system.
func (r *factorRunner) pairs(d time.Duration) *pairing {
	return runPairs(d, r.src, func(j job) sample {
		r.sys.Reset()
		t0 := time.Now()
		f, err := callDirect(r.sys, j)
		s := sample{decomp: j.decomp, inputID: j.inputID, span: time.Since(t0).Seconds(), gpuBusy: -1, outcome: "error"}
		if err == nil {
			s.ok = verified(j.a, f, j.probe, nil, nil)
			s.outcome = f.Report().OutcomeOf(s.ok).String()
		}
		return s
	})
}

// pairs runs the pairing phase through the scheduler, one job at a time,
// with the cache bypassed so every job runs.
func (r *serviceRunner) pairs(d time.Duration) *pairing {
	return runPairs(d, r.src, func(j job) sample {
		j.noCache = true
		t := time.Now()
		h, err := r.sched.Submit(context.Background(), specOf(j))
		if err != nil {
			return sample{decomp: j.decomp, inputID: j.inputID, outcome: "rejected", gpuBusy: -1}
		}
		<-h.Done()
		return r.finishJob(pending{j: j, h: h, due: t, submit: t}, time.Now(), nil)
	})
}
