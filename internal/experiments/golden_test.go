package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"colocmodel/internal/harness"
)

// updateGolden rewrites the paper golden from the code checked out:
//
//	go test ./internal/experiments/ -run TestPaperGolden -update
//
// Only a change that means to move a reproduced number runs it, and says
// why in CHANGES.md.
var updateGolden = flag.Bool("update", false, "rewrite testdata/paper_golden.json from the current code")

const paperGoldenPath = "testdata/paper_golden.json"

// goldenValue is one pinned statistic: its IEEE-754 bits in hex (the
// comparison) beside its decimal (for the reader).
type goldenValue struct {
	Name  string  `json:"name"`
	Bits  string  `json:"bits"`
	Value float64 `json:"value"`
}

// paperGolden is everything the shared 5-partition suite reproduces of
// the paper's evaluation.
type paperGolden struct {
	// Datasets maps machine name to the SHA-256 of its Table V dataset.
	Datasets map[string]string `json:"dataset_sha256"`
	Values   []goldenValue     `json:"values"`
}

// datasetDigest hashes every record (identity, the Seconds and
// TrueSeconds bits, the counters) in order and every baseline in name
// order.
func datasetDigest(ds *harness.Dataset) string {
	h := sha256.New()
	var b [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	float := func(v float64) { word(math.Float64bits(v)) }
	str := func(s string) {
		word(uint64(len(s)))
		io.WriteString(h, s)
	}
	str(ds.Machine)
	float(ds.LLCBytes)
	for _, f := range ds.PStateFreqs {
		float(f)
	}
	names := make([]string, 0, len(ds.Baselines))
	for n := range ds.Baselines {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		bl := ds.Baselines[n]
		str(bl.App)
		for _, s := range bl.SecondsByPState {
			float(s)
		}
		float(bl.MemIntensity)
		float(bl.CMPerCA)
		float(bl.CAPerIns)
	}
	for _, r := range ds.Records {
		str(r.Machine)
		word(uint64(r.PState))
		float(r.FreqGHz)
		str(r.Target)
		str(r.CoApp)
		word(uint64(r.NumCoLoc))
		float(r.Seconds)
		float(r.TrueSeconds)
		word(r.Counts.Instructions)
		word(r.Counts.Cycles)
		word(r.Counts.LLCMisses)
		word(r.Counts.LLCAccesses)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// collectPaperGolden computes the golden from the shared suite: the two
// dataset digests, Table VI, train/test MPE and NRMSE of all twelve
// models on both machines (Figures 1–4), and Figure 5(b)'s ±2 % and ±5 %
// shares, overall and per application.
func collectPaperGolden(t *testing.T) paperGolden {
	t.Helper()
	s := testSuite(t)
	g := paperGolden{Datasets: map[string]string{}}
	for _, ds := range []*harness.Dataset{s.ds6, s.ds12} {
		g.Datasets[ds.Machine] = datasetDigest(ds)
	}
	add := func(name string, v float64) {
		g.Values = append(g.Values, goldenValue{Name: name, Bits: fmt.Sprintf("%016x", math.Float64bits(v)), Value: v})
	}

	t6 := table6(t)
	add("table6/baseline_seconds", t6.BaselineSeconds)
	for _, r := range t6.Rows {
		p := fmt.Sprintf("table6/k=%02d/", r.NumCG)
		add(p+"seconds", r.Seconds)
		add(p+"normalized", r.Normalized)
		add(p+"linear_f_predict", r.LinearFPredict)
		add(p+"linear_f_error_pct", r.LinearFError)
		add(p+"neural_f_predict", r.NeuralFPredict)
		add(p+"neural_f_error_pct", r.NeuralFError)
	}

	for n := 1; n <= 4; n++ {
		f, err := s.Figure(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range f.Points {
			prefix := fmt.Sprintf("figure%d/%s/%s/", n, f.Metric, p.Model)
			add(prefix+"train", p.TrainError)
			add(prefix+"test", p.TestError)
		}
	}

	f5 := figure5b(t)
	add("figure5b/overall/within2", f5.Within2)
	add("figure5b/overall/within5", f5.Within5)
	for _, r := range f5.Rows {
		add("figure5b/"+r.App+"/within2", r.Within2)
		add("figure5b/"+r.App+"/within5", r.Within5)
	}
	return g
}

// encode renders the golden one value to a line, so a moved number is a
// one-line diff.
func (g paperGolden) encode(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	digests, err := json.MarshalIndent(g.Datasets, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "{\n  \"dataset_sha256\": %s,\n  \"values\": [\n", digests)
	for i, v := range g.Values {
		line, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sep := ","
		if i == len(g.Values)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "    %s%s\n", line, sep)
	}
	buf.WriteString("  ]\n}\n")
	return buf.Bytes()
}

// TestPaperGolden pins the paper's reproduced numbers: any change to the
// simulator, the harness noise, feature extraction or model training that
// moves one bit of them fails here. It is exact on amd64; elsewhere the
// compiler may fuse multiply-adds and math has no assembly, so values are
// compared at 1e-12 relative and the digests are not compared.
func TestPaperGolden(t *testing.T) {
	got := collectPaperGolden(t)
	have := got.encode(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(paperGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperGoldenPath, have, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d values to %s", len(got.Values), paperGoldenPath)
		return
	}
	raw, err := os.ReadFile(paperGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(have, raw) {
		return
	}
	var want paperGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", paperGoldenPath, err)
	}
	exact := runtime.GOARCH == "amd64"
	if exact {
		for m, d := range want.Datasets {
			if got.Datasets[m] != d {
				t.Errorf("dataset %s: sha256 %s, golden %s", m, got.Datasets[m], d)
			}
		}
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%d values, golden has %d", len(got.Values), len(want.Values))
	}
	moved := 0
	for i, w := range want.Values {
		g := got.Values[i]
		if g.Name != w.Name {
			t.Fatalf("value %d is %s, golden has %s", i, g.Name, w.Name)
		}
		same := g.Bits == w.Bits
		if !exact {
			same = math.Abs(g.Value-w.Value) <= 1e-12*math.Abs(w.Value)
		}
		if !same {
			moved++
			if moved <= 20 {
				t.Errorf("%s = %v (%s), golden %v (%s)", w.Name, g.Value, g.Bits, w.Value, w.Bits)
			}
		}
	}
	if moved > 0 {
		t.Errorf("%d of %d values moved", moved, len(want.Values))
	}
	if !exact {
		t.Logf("GOARCH=%s: values compared at 1e-12 relative, dataset digests not compared (exact only on amd64)", runtime.GOARCH)
	}
	if !t.Failed() && exact {
		t.Fatalf("%s differs from what -update writes, though every value matches: regenerate it", paperGoldenPath)
	}
}
