package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"ftla"
	"ftla/internal/service"
)

// fingerprintJobs is how many leading jobs the determinism tests compare.
const fingerprintJobs = 48

func TestSameSeedSameJobSequence(t *testing.T) {
	for _, w := range workloads {
		a := fingerprint(w.inputs(7), fingerprintJobs)
		b := fingerprint(w.inputs(7), fingerprintJobs)
		if a != b {
			t.Errorf("%s: seed 7 gave fingerprints %x and %x", w.name, a, b)
		}
	}
}

func TestDifferentSeedDifferentJobSequence(t *testing.T) {
	for _, w := range workloads {
		a := fingerprint(w.inputs(7), fingerprintJobs)
		b := fingerprint(w.inputs(8), fingerprintJobs)
		if a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same fingerprint %x", w.name, a)
		}
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the tests compare.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// fakeMeasurement is a small measurement with one sample of each kind, so
// every metric derivation runs.
func fakeMeasurement() *measurement {
	rep := &ftla.Report{SimMakespan: 1e-3, Wall: time.Millisecond}
	p := &phase{name: "fake", wall: 1, samples: []sample{
		{decomp: service.LU, inputID: "lu/0", lat: 0.01, span: 0.01, ok: true, outcome: "fault-free", ran: true, report: rep, core: 0.001, attempts: 1, gpuBusy: -1},
		{decomp: service.QR, inputID: "hot/qr/0", lat: 0.002, span: 0.002, ok: true, outcome: "fault-free", gpuBusy: -1},
		{decomp: service.Cholesky, inputID: "cold/1", outcome: "rejected", gpuBusy: -1},
	}}
	return &measurement{lat: p, thr: p}
}

func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, printed map[string]metric, listed []struct{ Name, Unit, Better string }) {
		t.Helper()
		units := map[string]string{}
		for _, m := range listed {
			units[m.Name] = m.Unit
		}
		for name, m := range printed {
			unit, ok := units[name]
			switch {
			case !ok:
				t.Errorf("%s metric %q is printed but not in BENCHMARK.json", kind, name)
			case unit != m.Unit:
				t.Errorf("%s metric %q printed in %q, BENCHMARK.json says %q", kind, name, m.Unit, unit)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s metric %q is not finite: %v", kind, name, m.Value)
			}
		}
		if len(printed) != len(listed) {
			t.Errorf("%d %s metrics printed, BENCHMARK.json lists %d", len(printed), kind, len(listed))
		}
	}
	m := fakeMeasurement()
	pairs := &pairing{ratios: []float64{1.1, 1.2}}
	check("end-to-end", endToEnd(m, pairs, []float64{0.5}, 100), f.EndToEnd)
	check("per-layer", traceMetrics(m.lat.latencies(), m, kernelPass(nil)), f.PerLayer)

	for i, l := range layerMetrics {
		if i >= len(f.PerLayer) || f.PerLayer[i].Name != l.name || f.PerLayer[i].Better != l.better {
			t.Errorf("per-layer metric %d: code has %+v, BENCHMARK.json differs", i, l)
		}
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames())
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct := tail(xs)
	if v != 190 || pct != 95 {
		t.Fatalf("tail of 1..200 = %v at p%v, want 190 at p95", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 5 || pct != 100 {
		t.Fatalf("tail of 5 samples = %v at p%v, want the maximum at p100", v, pct)
	}
}

func TestPairsAlternateWholeCyclesOfTwins(t *testing.T) {
	src := clusterInputs(7)
	var calls []job
	p := runPairs(0, src, func(j job) sample {
		calls = append(calls, j)
		span := 1.0
		if j.fault != "" {
			span = 2 // every cluster_faults job carries a fault
		}
		return sample{ok: true, span: span}
	})
	if len(calls) != 2*pairCycle || len(p.ratios) != pairCycle {
		t.Fatalf("%d calls, %d ratios; want one cycle: %d calls, %d ratios", len(calls), len(p.ratios), 2*pairCycle, pairCycle)
	}
	for i := 0; i < pairCycle; i++ {
		ft, plain := calls[2*i], calls[2*i+1]
		if i%2 == 1 {
			ft, plain = plain, ft
		}
		want := src.job(pairBase + i)
		if ft.inputID != want.inputID || ft.fault != want.fault {
			t.Errorf("pair %d: protected job %s %q, want %s %q", i, ft.inputID, ft.fault, want.inputID, want.fault)
		}
		if plain.a != want.a || plain.decomp != want.decomp || plain.fault != "" ||
			plain.cfg.Injector != nil || plain.cfg.NodeFault != nil || plain.cfg.LinkFault != nil ||
			plain.cfg.FailStop != nil || plain.cfg.Nodes > 1 || plain.cfg.Protection != ftla.NoProtection {
			t.Errorf("pair %d: twin %+v is not the plain form of %s", i, plain.cfg, want.inputID)
		}
	}
	if got := p.overhead(); got != 2 {
		t.Errorf("overhead = %v, want 2", got)
	}
	if got := (&pairing{ratios: []float64{1, 4}}).overhead(); got != 2 {
		t.Errorf("overhead of ratios 1 and 4 = %v, want their geometric mean 2", got)
	}
}

func TestBackwardErrorSeparatesWrongSolutions(t *testing.T) {
	a := ftla.RandomDiagDominant(64, 3)
	b := genVector(64, 4)
	res, err := ftla.LU(a, ftla.Config{NB: 16})
	if err != nil {
		t.Fatal(err)
	}
	f := &service.Factorization{Decomp: service.LU, LU: res}
	if !verified(a, f, b, nil, nil) {
		t.Fatal("a correct factor fails the solve check")
	}
	res.Factors.Set(10, 3, res.Factors.At(10, 3)+1e-3)
	if verified(a, f, b, nil, nil) {
		t.Fatal("a corrupted factor passes the solve check")
	}
}
