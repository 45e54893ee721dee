package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func twoBlobs(rng *rand.Rand, nPer int) ([][]float64, []int) {
	rows := make([][]float64, 0, 2*nPer)
	labels := make([]int, 0, 2*nPer)
	for i := 0; i < nPer; i++ {
		rows = append(rows, []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
		labels = append(labels, 0)
		rows = append(rows, []float64{5 + rng.NormFloat64()*0.3, 5 + rng.NormFloat64()*0.3})
		labels = append(labels, 1)
	}
	return rows, labels
}

func TestScalerStandardizes(t *testing.T) {
	rows := [][]float64{{1, 100}, {2, 200}, {3, 300}, {4, 400}}
	s, err := FitScaler(rows)
	if err != nil {
		t.Fatal(err)
	}
	out := s.TransformAll(rows)
	// Each column must have mean ~0 and sd ~1.
	for d := 0; d < 2; d++ {
		var mean float64
		for _, r := range out {
			mean += r[d]
		}
		mean /= float64(len(out))
		if math.Abs(mean) > 1e-9 {
			t.Errorf("dim %d mean = %v", d, mean)
		}
		var sd float64
		for _, r := range out {
			sd += r[d] * r[d]
		}
		sd = math.Sqrt(sd / float64(len(out)))
		if math.Abs(sd-1) > 1e-9 {
			t.Errorf("dim %d sd = %v", d, sd)
		}
	}
}

func TestScalerConstantFeature(t *testing.T) {
	rows := [][]float64{{7, 1}, {7, 2}, {7, 3}}
	s, err := FitScaler(rows)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Transform([]float64{7, 2})
	if out[0] != 0 {
		t.Errorf("constant feature should center to 0, got %v", out[0])
	}
	if math.IsNaN(out[1]) || math.IsInf(out[1], 0) {
		t.Errorf("varying feature broken: %v", out[1])
	}
}

func TestScalerErrors(t *testing.T) {
	if _, err := FitScaler(nil); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := FitScaler([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows should error")
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows, labels := twoBlobs(rng, 50)
	m, err := FitKMeans(rows, 2, 7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 2 {
		t.Fatalf("K = %d, want 2", m.K())
	}
	// All points of each blob must share a cluster.
	c0 := m.Predict(rows[0])
	for i, r := range rows {
		got := m.Predict(r)
		if labels[i] == 0 && got != c0 {
			t.Fatalf("blob 0 split across clusters at %d", i)
		}
		if labels[i] == 1 && got == c0 {
			t.Fatalf("blobs merged at %d", i)
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows, _ := twoBlobs(rng, 30)
	a, _ := FitKMeans(rows, 3, 11, 100)
	b, _ := FitKMeans(rows, 3, 11, 100)
	if a.K() != b.K() {
		t.Fatal("non-deterministic cluster count")
	}
	for i := range a.Centroids {
		for d := range a.Centroids[i] {
			if a.Centroids[i][d] != b.Centroids[i][d] {
				t.Fatal("non-deterministic centroids")
			}
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if _, err := FitKMeans(nil, 2, 1, 10); err == nil {
		t.Error("empty rows should error")
	}
	if _, err := FitKMeans([][]float64{{1}}, 0, 1, 10); err == nil {
		t.Error("k=0 should error")
	}
	// k > n clamps.
	m, err := FitKMeans([][]float64{{1}, {2}}, 10, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() > 2 {
		t.Errorf("K = %d, want <= 2", m.K())
	}
	// Identical points: one effective cluster.
	same := [][]float64{{3, 3}, {3, 3}, {3, 3}}
	m, err = FitKMeans(same, 2, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{3, 3}) >= m.K() {
		t.Error("predict out of range")
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, 200)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
	}
	m1, _ := FitKMeans(rows, 1, 5, 100)
	m4, _ := FitKMeans(rows, 4, 5, 100)
	if m4.Inertia(rows) >= m1.Inertia(rows) {
		t.Errorf("inertia should drop with more clusters: k1=%v k4=%v",
			m1.Inertia(rows), m4.Inertia(rows))
	}
}

func TestKMeansPredictConsistencyProperty(t *testing.T) {
	// Property: Predict maps every centroid to itself.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, 30)
		for i := range rows {
			rows[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		}
		m, err := FitKMeans(rows, 4, seed, 50)
		if err != nil {
			return false
		}
		for c, cent := range m.Centroids {
			if m.Predict(cent) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDecisionTreeLearnsBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows, labels := twoBlobs(rng, 60)
	tree, err := FitTree(rows, labels, DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, r := range rows {
		if tree.Predict(r) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(rows)); acc < 0.98 {
		t.Errorf("tree training accuracy = %v", acc)
	}
}

func TestDecisionTreeXOR(t *testing.T) {
	// XOR needs depth >= 2: single-split models fail, CART succeeds.
	var rows [][]float64
	var labels []int
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		x, y := rng.Float64(), rng.Float64()
		rows = append(rows, []float64{x, y})
		if (x > 0.5) != (y > 0.5) {
			labels = append(labels, 1)
		} else {
			labels = append(labels, 0)
		}
	}
	tree, err := FitTree(rows, labels, TreeConfig{MaxDepth: 6, MinLeafSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, r := range rows {
		if tree.Predict(r) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(rows)); acc < 0.9 {
		t.Errorf("XOR accuracy = %v", acc)
	}
}

func TestDecisionTreeErrors(t *testing.T) {
	if _, err := FitTree(nil, nil, DefaultTreeConfig()); err == nil {
		t.Error("empty training should error")
	}
	if _, err := FitTree([][]float64{{1}}, []int{0, 1}, DefaultTreeConfig()); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestDecisionTreeSingleClass(t *testing.T) {
	rows := [][]float64{{1}, {2}, {3}}
	labels := []int{7, 7, 7}
	tree, err := FitTree(rows, labels, DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Predict([]float64{99}) != 7 {
		t.Error("single-class tree should always predict that class")
	}
}

func TestRandomForestBeatsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rows, labels := twoBlobs(rng, 60)
	f, err := FitForest(rows, labels, 7, 9)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, r := range rows {
		if f.Predict(r) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(rows)); acc < 0.95 {
		t.Errorf("forest accuracy = %v", acc)
	}
}

// TestRandomForestDeterministic fits a tree and a forest 24 times on
// labels that tie everywhere — every point carries each of four classes
// once — and requires the same prediction at every point from each fit:
// a tie goes to the lowest class, never to whichever a map yields first.
func TestRandomForestDeterministic(t *testing.T) {
	var rows [][]float64
	var labels []int
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			for c := 0; c < 4; c++ {
				rows = append(rows, []float64{float64(x), float64(y)})
				labels = append(labels, c)
			}
		}
	}
	predictAll := func(predict func([]float64) int) []int {
		var out []int
		for x := -0.5; x < 6; x += 0.5 {
			for y := -0.5; y < 6; y += 0.5 {
				out = append(out, predict([]float64{x, y}))
			}
		}
		return out
	}
	var wantTree, wantForest []int
	for fit := 0; fit < 24; fit++ {
		tree, err := FitTree(rows, labels, DefaultTreeConfig())
		if err != nil {
			t.Fatal(err)
		}
		forest, err := FitForest(rows, labels, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		gotTree, gotForest := predictAll(tree.Predict), predictAll(forest.Predict)
		if fit == 0 {
			wantTree, wantForest = gotTree, gotForest
			continue
		}
		if !reflect.DeepEqual(gotTree, wantTree) {
			t.Fatalf("fit %d: the tree predicts differently from fit 0", fit)
		}
		if !reflect.DeepEqual(gotForest, wantForest) {
			t.Fatalf("fit %d: the forest predicts differently from fit 0", fit)
		}
	}
	// Every leaf of the tree is a four-way tie.
	for i, c := range wantTree {
		if c != 0 {
			t.Fatalf("point %d: the tree predicts class %d at a four-way tie, want 0", i, c)
		}
	}
}

func BenchmarkKMeansFit(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	rows := make([][]float64, 500)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitKMeans(rows, 8, 1, 50); err != nil {
			b.Fatal(err)
		}
	}
}
