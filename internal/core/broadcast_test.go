package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ftla/internal/checksum"
	"ftla/internal/fault"
	"ftla/internal/matrix"
)

// TestClusterRelayBitIdentical pins the hierarchical broadcast's results:
// a clean run on 4 GPUs spread over 2 nodes — every remote node's second
// GPU receives each panel from its node's relay, not from the source —
// gives factors, pivots, tau, and verification counters bit-identical to
// the same 4 GPUs on a flat system, under both schedules.
func TestClusterRelayBitIdentical(t *testing.T) {
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		for _, lookahead := range []int{0, 1} {
			label := fmt.Sprintf("%s/lookahead=%d", decomp, lookahead)
			opts := Options{NB: 16, Mode: Full, Scheme: NewScheme,
				Kernel: checksum.OptKernel, Lookahead: lookahead}
			flat := runPipelineOn(t, decomp, 96, testSystem(4), opts)
			relay := runPipelineOn(t, decomp, 96, clusterSystem(4, 2), opts)
			if d, r, c := flat.out.MaxAbsDiff(relay.out); d != 0 {
				t.Fatalf("%s: factors not bit-identical to the flat run: |Δ|=%g at (%d,%d)", label, d, r, c)
			}
			for i := range flat.pivots {
				if flat.pivots[i] != relay.pivots[i] {
					t.Fatalf("%s: pivots differ at %d: %d vs %d", label, i, flat.pivots[i], relay.pivots[i])
				}
			}
			for i := range flat.tau {
				if flat.tau[i] != relay.tau[i] {
					t.Fatalf("%s: tau differs at %d: %v vs %v", label, i, flat.tau[i], relay.tau[i])
				}
			}
			if flat.res.Counter != relay.res.Counter {
				t.Fatalf("%s: counters differ:\nflat  %+v\nrelay %+v", label, flat.res.Counter, relay.res.Counter)
			}
		}
	}
}

// nodeOfDevice maps a trace device name to its node: "N<i>/GPU<g>" lives
// on node i, and the CPU coordinates from node 0.
func nodeOfDevice(t *testing.T, name string) int {
	t.Helper()
	if name == "CPU" {
		return 0
	}
	var node, g int
	if _, err := fmt.Sscanf(name, "N%d/GPU%d", &node, &g); err != nil {
		t.Fatalf("unexpected device name %q: %v", name, err)
	}
	return node
}

// TestClusterBroadcastCrossesEachNodeOnce pins the traffic of the
// hierarchical broadcast on 4 GPUs over 2 nodes: each panel broadcast puts
// exactly one cross-node transfer per piece on the wire into every node
// that holds no certified copy of that piece. The certified copies are the
// source's node (the CPU's node 0 for LU/QR, the owner GPU's node for
// Cholesky's PU broadcast) and, for the LU/QR panel and its checksum
// strips, the owner's node once the writeback has landed. The writeback of
// the factored panel is itself one cross-node leg per piece when the owner
// is remote. The ladder is driven stage by stage so only the commit and
// update stages are traced.
func TestClusterBroadcastCrossesEachNodeOnce(t *testing.T) {
	ladders := map[string]func(*engineSys, *protected) ladder{
		"cholesky": newCholLadder, "lu": newLULadder, "qr": newQRLadder,
	}
	for _, decomp := range []string{"cholesky", "lu", "qr"} {
		sys := clusterSystem(4, 2)
		opts := Options{NB: 16, Mode: Full, Scheme: NewScheme, Kernel: checksum.OptKernel}
		if err := opts.Validate(96); err != nil {
			t.Fatal(err)
		}
		es := newEngine(decomp, sys, opts, &Result{})
		p := newProtected(es, pipelineInput(decomp, 96))
		l := ladders[decomp](es, p)
		// crossInto traces body and counts its cross-node transfers by
		// destination node.
		crossInto := func(body func()) [2]int {
			sys.EnableTrace(true)
			body()
			var n [2]int
			for _, ev := range sys.Events() {
				if ev.Op != "pcie" {
					continue
				}
				ends := strings.Split(ev.Device, "->")
				if from, to := nodeOfDevice(t, ends[0]), nodeOfDevice(t, ends[1]); from != to {
					n[to]++
				}
			}
			sys.EnableTrace(false)
			return n
		}
		for k := 0; k < l.steps(); k++ {
			ownerNode := sys.NodeOf(p.owner(k))
			var want [2]int
			// certified[piece] lists the nodes holding a certified copy.
			var certified [][]int
			l.panelFactor(k)
			l.panelPivot(k)
			got := crossInto(func() { l.panelCommit(k) })
			if ownerNode != 0 {
				want[ownerNode] += 2 // the factored panel's writeback, data and checksums
			}
			if decomp != "cholesky" {
				// The panel and its checksum strips, relayed from the
				// CPU's node and the owner's.
				certified = [][]int{{0, ownerNode}, {0, ownerNode}}
				if decomp == "qr" {
					certified = append(certified, []int{0}, []int{0}) // c(V), T
				}
			}
			if k < l.steps()-1 {
				pu := crossInto(func() { l.panelUpdate(k) })
				got[0] += pu[0]
				got[1] += pu[1]
				if decomp == "cholesky" {
					certified = [][]int{{ownerNode}, {ownerNode}} // L21 and its checksums
				}
			}
			for _, nodes := range certified {
				for node := 0; node < 2; node++ {
					if !slices.Contains(nodes, node) {
						want[node]++
					}
				}
			}
			if got != want {
				t.Fatalf("%s step %d (owner on node %d): cross-node transfers into nodes 0/1 = %v, want %v",
					decomp, k, ownerNode, got, want)
			}
			if k == l.steps()-1 {
				break
			}
			l.tmuBegin(k)
			for g := 0; g < sys.NumGPUs(); g++ {
				l.tmuGPU(k, g, tmuAll)
			}
			l.tmuFinish(k)
		}
		if es.res.Detected {
			t.Fatalf("%s: clean stage-by-stage run detected errors: %+v", decomp, es.res.Counter)
		}
	}
}

// TestClusterRelayCorruptionCorrected pins the relay's fault semantics on 4
// GPUs over 2 nodes: a communication fault striking the leg into a relay
// GPU is inherited by every node-mate the relay serves, and post-broadcast
// verification corrects it on each of them — the run ends ABFT-fixed, with
// no local restart (only some GPUs are corrupted, so §VII.C implicates the
// link, not the sender) and a verified factor. When the owner GPU relays
// (LU/QR, owner on node 1) the struck leg is its writeback, so the owner's
// authoritative copy is repaired too: one more detection.
func TestClusterRelayCorruptionCorrected(t *testing.T) {
	cases := []struct {
		decomp   string
		op       fault.Op
		it, gpu  int
		detected int
	}{
		// LU/QR step 0: owner GPU0 on node 0; GPU1 relays to GPU3.
		{"lu", fault.PD, 0, 1, 2},
		{"qr", fault.PD, 0, 1, 2},
		// LU/QR step 1: owner GPU1 on node 1 relays its writeback to GPU3.
		{"lu", fault.PD, 1, 1, 3},
		{"qr", fault.PD, 1, 1, 3},
		// Cholesky PU step 0: source GPU0; GPU1 relays to GPU3.
		{"cholesky", fault.PU, 0, 1, 2},
		// Cholesky PU step 1: source GPU1; GPU0 relays to GPU2.
		{"cholesky", fault.PU, 1, 0, 2},
	}
	for _, tc := range cases {
		label := fmt.Sprintf("%s/%s@%d->GPU%d", tc.decomp, tc.op, tc.it, tc.gpu)
		inj := fault.NewInjector(23)
		inj.Schedule(fault.Spec{Kind: fault.Communication, Op: tc.op, Iteration: tc.it, GPUTarget: tc.gpu})
		opts := Options{NB: 16, Mode: Full, Scheme: NewScheme, Kernel: checksum.OptKernel, Injector: inj}
		pr := runPipelineOn(t, tc.decomp, 96, clusterSystem(4, 2), opts)
		if len(inj.Events()) != 1 {
			t.Fatalf("%s: comm fault fired %d times, want 1", label, len(inj.Events()))
		}
		a := pipelineInput(tc.decomp, 96)
		var resid float64
		switch tc.decomp {
		case "cholesky":
			resid = matrix.CholeskyResidual(a, pr.out)
		case "lu":
			resid = matrix.LUResidual(a, pr.out, pr.pivots)
		default:
			resid = qrResidual(a, pr.out, pr.tau)
		}
		ok := resid < 1e-11
		if got := pr.res.OutcomeOf(ok); got != ABFTFixed {
			t.Fatalf("%s: outcome %v (residual %g, counters %+v), want abft-fixed",
				label, got, resid, pr.res.Counter)
		}
		if pr.res.Counter.LocalRestarts != 0 || pr.res.Counter.Rebroadcasts != 0 {
			t.Fatalf("%s: relay corruption needed a restart or re-ship: %+v", label, pr.res.Counter)
		}
		if pr.res.Counter.DetectedErrors != tc.detected {
			t.Fatalf("%s: DetectedErrors = %d, want %d (one per GPU that inherited the leg)",
				label, pr.res.Counter.DetectedErrors, tc.detected)
		}
	}
}
