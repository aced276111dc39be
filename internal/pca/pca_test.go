package pca

import (
	"math"
	"testing"

	"colocmodel/internal/linalg"
	"colocmodel/internal/xrand"
)

func TestFitErrors(t *testing.T) {
	if _, err := Fit(linalg.NewMatrix(1, 3)); err == nil {
		t.Fatal("1 sample accepted")
	}
	if _, err := Fit(linalg.NewMatrix(5, 0)); err == nil {
		t.Fatal("0 features accepted")
	}
}

func TestExplainedRatiosSumToOne(t *testing.T) {
	src := xrand.New(1)
	x := linalg.NewMatrix(300, 5)
	for i := range x.Data {
		x.Data[i] = src.Normal(0, 1)
	}
	r, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range r.ExplainedRatio {
		if v < 0 {
			t.Fatalf("negative explained ratio %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ratios sum to %v", sum)
	}
	// Sorted descending with the eigenvalues.
	for i := 1; i < len(r.Variances); i++ {
		if r.Variances[i] > r.Variances[i-1]+1e-12 {
			t.Fatal("variances not sorted")
		}
	}
}

func TestDominantDirectionFound(t *testing.T) {
	// Feature 0 has huge correlated variance with feature 1; feature 2 is
	// independent noise. The first component must load on 0 and 1.
	src := xrand.New(2)
	x := linalg.NewMatrix(500, 3)
	for i := 0; i < x.Rows; i++ {
		v := src.Normal(0, 3)
		x.Set(i, 0, v+src.Normal(0, 0.1))
		x.Set(i, 1, -v+src.Normal(0, 0.1))
		x.Set(i, 2, src.Normal(0, 1))
	}
	r, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExplainedRatio[0] < 0.5 {
		t.Fatalf("first component explains only %v", r.ExplainedRatio[0])
	}
	l0 := math.Abs(r.Components.At(0, 0))
	l1 := math.Abs(r.Components.At(1, 0))
	l2 := math.Abs(r.Components.At(2, 0))
	if l0 < 0.5 || l1 < 0.5 || l2 > 0.2 {
		t.Fatalf("first component loadings (%v, %v, %v)", l0, l1, l2)
	}
}

func TestFeatureScoreSumsToOne(t *testing.T) {
	src := xrand.New(3)
	x := linalg.NewMatrix(200, 4)
	for i := range x.Data {
		x.Data[i] = src.Normal(0, 2)
	}
	r, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	scores := r.FeatureScore()
	sum := 0.0
	for _, s := range scores {
		if s < 0 {
			t.Fatalf("negative score %v", s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("scores sum to %v", sum)
	}
	if len(r.Rank()) != 4 {
		t.Fatal("rank length wrong")
	}
}

func TestRankOrdersByScore(t *testing.T) {
	src := xrand.New(4)
	x := linalg.NewMatrix(400, 3)
	for i := 0; i < x.Rows; i++ {
		shared := src.Normal(0, 1)
		x.Set(i, 0, shared*5+src.Normal(0, 0.1)) // strong shared signal
		x.Set(i, 1, shared*5+src.Normal(0, 0.1))
		x.Set(i, 2, src.Normal(0, 1))
	}
	r, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	rank := r.Rank()
	scores := r.FeatureScore()
	for i := 1; i < len(rank); i++ {
		if scores[rank[i]] > scores[rank[i-1]]+1e-12 {
			t.Fatalf("rank not descending: %v with scores %v", rank, scores)
		}
	}
}

func TestConstantColumnHarmless(t *testing.T) {
	src := xrand.New(5)
	x := linalg.NewMatrix(100, 2)
	for i := 0; i < x.Rows; i++ {
		x.Set(i, 0, src.Normal(0, 1))
		x.Set(i, 1, 42)
	}
	r, err := Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Variances {
		if math.IsNaN(v) {
			t.Fatal("NaN variance with constant column")
		}
	}
}
