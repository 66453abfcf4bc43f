// Command perfbench is the repository benchmark. It drives the ftla library
// and its serving layer on three seeded workloads, checks every output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics)
// as one JSON object on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload factor_large --seed 1 --seconds 10 --trace 0
//
// Every layer is measured from outside: the benchmark times calls into
// public functions and reads counters the program already exposes
// (ftla.Report, service.Stats and JobResult, obs.Default snapshot diffs,
// hetsim.System, runtime/metrics). It adds no instrumentation to the
// program. See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed; inputs and fault plans depend only on it")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced mode and prints per-layer metrics")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))

	printMeta(w.name, *seed, *seconds, *trace == 1)
	var (
		res   result
		notes []string
		err   error
	)
	if *trace == 1 {
		res, notes, err = runTraced(w, *seed, d)
	} else {
		res, notes, err = runUntraced(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// hostMeta records where and from what a run was made.
type hostMeta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
}

func currentMeta(workload string, seed uint64, seconds float64, traced bool) hostMeta {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostMeta{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Commit: commit, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
	}
}

func printMeta(workload string, seed uint64, seconds float64, traced bool) {
	b, _ := json.Marshal(currentMeta(workload, seed, seconds, traced)) // plain struct: cannot fail
	fmt.Println("meta", string(b))
}

// cpuModel reads the host CPU model name, "unknown" where it is not
// available.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runUntraced sets the workload up several times (setup_s is their
// median), runs the last set-up's workload for a third of d and its
// pairing phase for the rest, and derives the end-to-end metrics.
func runUntraced(w *workload, seed uint64, d time.Duration) (result, []string, error) {
	src := w.inputs(seed)
	var (
		r      runner
		setups []float64
	)
	for i := 0; i < w.setups; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = w.setup(src); err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	run := r.measure(d/3, nil)
	pairs := r.pairs(d - d/3)
	r.close()

	notes := append(run.notes(), pairs.note(), fmt.Sprintf("setup_s runs %v", roundAll(setups)))
	out := run.result(endToEnd(run, pairs, setups, peakMemMB()))
	out.Attempted += len(pairs.samples)
	out.Failed += len(pairs.samples) - pairs.verified()
	out.Correct = out.Failed == 0
	return out, notes, nil
}

// runTraced sets the workload up once and measures a quarter of d
// untraced, half traced, and another quarter untraced, so a drift in host
// speed weighs the same on both sides of the tracing overhead. It then
// times the kernel pass and derives the per-layer metrics from the traced
// half. The spans are written to .bench_build/traces when the run ends.
func runTraced(w *workload, seed uint64, d time.Duration) (result, []string, error) {
	src := w.inputs(seed)
	r, err := w.setup(src)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	before := r.measure(d/4, nil)
	tr := newTracer()
	traced := r.measure(d/2, tr)
	after := r.measure(d/4, nil)
	r.close()

	plainLat := append(before.lat.latencies(), after.lat.latencies()...)
	layers := traceMetrics(plainLat, traced, kernelPass(tr))
	notes := traced.notes()
	path, err := tr.write(currentMeta(w.name, seed, d.Seconds(), true))
	if err != nil {
		notes = append(notes, "trace not written: "+err.Error())
	} else {
		notes = append(notes, "trace written to "+path)
	}
	out := traced.result(layers)
	for _, m := range []*measurement{before, after} {
		out.Attempted += m.attempted()
		out.Failed += m.failed()
	}
	out.Correct = out.Failed == 0
	return out, notes, nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1e4+0.5)) / 1e4
	}
	return out
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
