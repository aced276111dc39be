package mlp

import (
	"fmt"
	"testing"

	"colocmodel/internal/linalg"
	"colocmodel/internal/xrand"
)

func randomDataset(src *xrand.Source, rows, cols int) (*linalg.Matrix, []float64) {
	x := linalg.NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = src.Normal(0, 1)
	}
	y := make([]float64, rows)
	for i := range y {
		y[i] = src.Normal(0, 1)
	}
	return x, y
}

// TestBatchedMatchesScalarProperty sweeps randomized layer widths and
// batch sizes (including a single row) across all three activations and
// checks the batched forward, loss and gradient agree with the scalar
// reference bit-for-bit — a far stronger pin than the 1e-12 the issue
// asks for, and the property that keeps Figures 1–4 unchanged.
func TestBatchedMatchesScalarProperty(t *testing.T) {
	src := xrand.New(7)
	cases := []struct {
		inputs int
		hidden []int
		rows   int
		act    Activation
	}{
		{3, []int{10}, 1, Tanh},
		{5, []int{20}, 17, Tanh},
		{8, []int{13}, 64, Tanh},
		{2, []int{4, 6}, 33, Tanh},
		{6, []int{15}, 128, Sigmoid},
		{4, []int{9, 5}, 70, ReLU},
		{1, []int{1}, 2, Tanh},
		{12, []int{20}, 200, Tanh},
	}
	for ci, tc := range cases {
		t.Run(fmt.Sprintf("case%d_in%d_rows%d_%s", ci, tc.inputs, tc.rows, tc.act), func(t *testing.T) {
			n, err := New(Config{Inputs: tc.inputs, Hidden: tc.hidden, Activation: tc.act, Seed: uint64(100 + ci)})
			if err != nil {
				t.Fatal(err)
			}
			x, y := randomDataset(src, tc.rows, tc.inputs)

			wantPred, err := scalarPredictBatch(n, x)
			if err != nil {
				t.Fatal(err)
			}
			gotPred, err := n.PredictBatch(x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantPred {
				if gotPred[i] != wantPred[i] {
					t.Fatalf("pred[%d]: batched %v, scalar %v", i, gotPred[i], wantPred[i])
				}
			}

			wantLoss, err := scalarLoss(n, x, y)
			if err != nil {
				t.Fatal(err)
			}
			gotLoss, err := n.Loss(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if gotLoss != wantLoss {
				t.Fatalf("loss: batched %v, scalar %v", gotLoss, wantLoss)
			}

			wantL, wantGrad, err := scalarLossAndGrad(n, x, y)
			if err != nil {
				t.Fatal(err)
			}
			gotL, gotGrad, err := n.LossAndGrad(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if gotL != wantL {
				t.Fatalf("grad loss: batched %v, scalar %v", gotL, wantL)
			}
			for i := range wantGrad {
				if gotGrad[i] != wantGrad[i] {
					t.Fatalf("grad[%d]: batched %v, scalar %v (Δ %g)", i, gotGrad[i], wantGrad[i], gotGrad[i]-wantGrad[i])
				}
			}
		})
	}
}

// TestPredictBatchZeroRows pins the empty-batch edge.
func TestPredictBatchZeroRows(t *testing.T) {
	n, err := New(Config{Inputs: 4, Hidden: []int{6}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.PredictBatch(linalg.NewMatrix(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("got %d predictions for empty batch", len(out))
	}
}

// TestTrainSCGMatchesScalarReference trains two identically initialised
// networks — one through the batched workspace trainer, one through the
// retained scalar reference — and requires identical parameter
// trajectories, loss histories and iteration counts.
func TestTrainSCGMatchesScalarReference(t *testing.T) {
	src := xrand.New(11)
	x, y := randomDataset(src, 60, 5)
	cfg := Config{Inputs: 5, Hidden: []int{12}, Activation: Tanh, Seed: 99}
	nBatched, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nScalar := nBatched.Clone()

	tcfg := SCGConfig{MaxIter: 60}
	resB, err := TrainSCG(nBatched, x, y, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := scalarTrainSCG(nScalar, x, y, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Iterations != resS.Iterations || resB.Converged != resS.Converged {
		t.Fatalf("trajectory diverged: batched %d iters (conv=%v), scalar %d (conv=%v)",
			resB.Iterations, resB.Converged, resS.Iterations, resS.Converged)
	}
	if resB.FinalLoss != resS.FinalLoss || resB.GradNorm != resS.GradNorm {
		t.Fatalf("final state: batched loss=%v gn=%v, scalar loss=%v gn=%v",
			resB.FinalLoss, resB.GradNorm, resS.FinalLoss, resS.GradNorm)
	}
	if len(resB.LossHistory) != len(resS.LossHistory) {
		t.Fatalf("history length %d vs %d", len(resB.LossHistory), len(resS.LossHistory))
	}
	for i := range resB.LossHistory {
		if resB.LossHistory[i] != resS.LossHistory[i] {
			t.Fatalf("history[%d]: %v vs %v", i, resB.LossHistory[i], resS.LossHistory[i])
		}
	}
	pb, ps := nBatched.Params(), nScalar.Params()
	for i := range pb {
		if pb[i] != ps[i] {
			t.Fatalf("param[%d]: batched %v, scalar %v", i, pb[i], ps[i])
		}
	}
}

// TestWorkspaceReuseAcrossShapes reuses one workspace across different
// batch sizes and networks, which is exactly what core.Evaluate's worker
// goroutines do.
func TestWorkspaceReuseAcrossShapes(t *testing.T) {
	ws := NewWorkspace()
	src := xrand.New(17)
	for _, rows := range []int{50, 10, 80, 1} {
		for _, hidden := range []int{6, 14} {
			n, err := New(Config{Inputs: 3, Hidden: []int{hidden}, Seed: uint64(rows + hidden)})
			if err != nil {
				t.Fatal(err)
			}
			x, y := randomDataset(src, rows, 3)
			fresh := n.Clone()
			resWS, err := TrainSCGWS(n, x, y, SCGConfig{MaxIter: 15}, ws)
			if err != nil {
				t.Fatal(err)
			}
			resFresh, err := TrainSCG(fresh, x, y, SCGConfig{MaxIter: 15})
			if err != nil {
				t.Fatal(err)
			}
			if resWS.FinalLoss != resFresh.FinalLoss {
				t.Fatalf("rows=%d hidden=%d: reused workspace loss %v, fresh %v", rows, hidden, resWS.FinalLoss, resFresh.FinalLoss)
			}
			pa, pf := n.Params(), fresh.Params()
			for i := range pa {
				if pa[i] != pf[i] {
					t.Fatalf("rows=%d hidden=%d: param[%d] differs after reuse", rows, hidden, i)
				}
			}
		}
	}
}

// TestSCGStepZeroAllocs is the allocation-regression guard the issue asks
// for: a warmed SCG iteration must not touch the heap.
func TestSCGStepZeroAllocs(t *testing.T) {
	src := xrand.New(29)
	n, err := New(Config{Inputs: 8, Hidden: []int{20}, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	x, y := randomDataset(src, 128, 8)
	ws := NewWorkspace()
	// MaxIter generous so the preallocated loss history never grows.
	st, err := newSCGState(n, x, y, SCGConfig{MaxIter: 100000}, ws)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	step := func() {
		steps++
		done, err := st.step()
		if err != nil {
			t.Fatal(err)
		}
		// A converged run would stop here; every measured step must be
		// a full one.
		if done {
			t.Fatalf("SCG converged at step %d; the measured steps must not", steps)
		}
	}
	for i := 0; i < 5; i++ { // warm every buffer and code path
		step()
	}
	allocs := testing.AllocsPerRun(100, step)
	if st.res.Iterations != steps {
		t.Fatalf("state ran %d iterations for %d steps", st.res.Iterations, steps)
	}
	if allocs != 0 {
		t.Fatalf("warmed SCG step allocates %v/op, want 0", allocs)
	}
}

// TestPredictBatchWSZeroAllocs guards the batched inference path serve
// leans on.
func TestPredictBatchWSZeroAllocs(t *testing.T) {
	src := xrand.New(37)
	n, err := New(Config{Inputs: 7, Hidden: []int{15}, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := randomDataset(src, 64, 7)
	ws := NewWorkspace()
	out := make([]float64, x.Rows)
	if err := n.PredictBatchWS(ws, x, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := n.PredictBatchWS(ws, x, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed PredictBatchWS allocates %v/op, want 0", allocs)
	}
}

// benchTrainCase builds a synthetic training set shaped like the paper's
// per-partition problems (Table II features → 10–20 hidden nodes).
func benchTrainCase(rows int) (*linalg.Matrix, []float64) {
	src := xrand.New(uint64(rows))
	return func() (*linalg.Matrix, []float64) {
		x, y := randomDataset(src, rows, 8)
		return x, y
	}()
}

// BenchmarkTrainSCGBatched measures the new workspace trainer across
// small/medium/large batches; compare against
// BenchmarkTrainSCGScalarRef for the old per-sample path.
func BenchmarkTrainSCGBatched(b *testing.B) {
	for _, rows := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			x, y := benchTrainCase(rows)
			ws := NewWorkspace()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := New(Config{Inputs: 8, Hidden: []int{20}, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := TrainSCGWS(n, x, y, SCGConfig{MaxIter: 20}, ws)
				if err != nil {
					b.Fatal(err)
				}
				if res.Iterations != 20 {
					b.Fatalf("ran %d iterations, want 20", res.Iterations)
				}
			}
		})
	}
}

// BenchmarkTrainSCGScalarRef is the pre-rewrite per-sample trainer kept
// as the benchmark baseline.
func BenchmarkTrainSCGScalarRef(b *testing.B) {
	for _, rows := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			x, y := benchTrainCase(rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := New(Config{Inputs: 8, Hidden: []int{20}, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := scalarTrainSCG(n, x, y, SCGConfig{MaxIter: 20})
				if err != nil {
					b.Fatal(err)
				}
				if res.Iterations != 20 {
					b.Fatalf("ran %d iterations, want 20", res.Iterations)
				}
			}
		})
	}
}
