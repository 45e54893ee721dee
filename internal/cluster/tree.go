package cluster

import (
	"errors"
	"math"
	"math/rand"
)

// DecisionTree is a CART classifier over dense feature rows with integer
// class labels. It is the supervised baseline of §4.3.4: trees optimize
// per-block labels, so a mislabelled block gets a forecaster that may
// perform poorly — the failure mode clustering tolerates.
type DecisionTree struct {
	root *treeNode
}

type treeNode struct {
	leaf    bool
	class   int
	feature int
	thresh  float64
	lo, hi  *treeNode
}

// TreeConfig bounds tree growth.
type TreeConfig struct {
	MaxDepth    int
	MinLeafSize int
	// FeatureSubset, when positive, samples this many candidate features
	// per split (used by the random forest). Zero means all features.
	FeatureSubset int
	rng           *rand.Rand
	classes       int // labels are in [0, classes); set by FitTree
}

// DefaultTreeConfig returns conventional CART settings.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 8, MinLeafSize: 5}
}

// FitTree builds a CART classifier minimizing Gini impurity.
func FitTree(rows [][]float64, labels []int, cfg TreeConfig) (*DecisionTree, error) {
	if len(rows) == 0 || len(rows) != len(labels) {
		return nil, errors.New("cluster: bad training data")
	}
	classes, err := classCount(labels)
	if err != nil {
		return nil, err
	}
	cfg.classes = classes
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 8
	}
	if cfg.MinLeafSize <= 0 {
		cfg.MinLeafSize = 1
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	return &DecisionTree{root: growTree(rows, labels, idx, cfg, 0)}, nil
}

func growTree(rows [][]float64, labels, idx []int, cfg TreeConfig, depth int) *treeNode {
	maj, pure := majority(labels, idx, cfg.classes)
	if pure || depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeafSize {
		return &treeNode{leaf: true, class: maj}
	}
	feat, thresh, ok := bestSplit(rows, labels, idx, cfg)
	if !ok {
		return &treeNode{leaf: true, class: maj}
	}
	var loIdx, hiIdx []int
	for _, i := range idx {
		if rows[i][feat] <= thresh {
			loIdx = append(loIdx, i)
		} else {
			hiIdx = append(hiIdx, i)
		}
	}
	if len(loIdx) < cfg.MinLeafSize || len(hiIdx) < cfg.MinLeafSize {
		return &treeNode{leaf: true, class: maj}
	}
	return &treeNode{
		feature: feat,
		thresh:  thresh,
		lo:      growTree(rows, labels, loIdx, cfg, depth+1),
		hi:      growTree(rows, labels, hiIdx, cfg, depth+1),
	}
}

// classCount returns how many classes labels index: one more than the
// largest label. Labels must be non-negative.
func classCount(labels []int) (int, error) {
	n := 0
	for _, l := range labels {
		if l < 0 {
			return 0, errors.New("cluster: negative class label")
		}
		n = max(n, l+1)
	}
	return n, nil
}

// plurality returns the class counted most often, a tie going to the
// lowest class, so the winner never depends on an iteration order.
func plurality(counts []int) int {
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best
}

// majority returns the plurality class of labels over idx, and whether
// every label there is that class.
func majority(labels, idx []int, classes int) (int, bool) {
	counts := make([]int, classes)
	for _, i := range idx {
		counts[labels[i]]++
	}
	best := plurality(counts)
	return best, counts[best] == len(idx)
}

// bestSplit scans candidate (feature, threshold) pairs for the lowest
// weighted Gini impurity. Thresholds are midpoints between distinct sorted
// values, subsampled for speed on large nodes.
func bestSplit(rows [][]float64, labels, idx []int, cfg TreeConfig) (int, float64, bool) {
	dims := len(rows[idx[0]])
	feats := make([]int, 0, dims)
	if cfg.FeatureSubset > 0 && cfg.FeatureSubset < dims && cfg.rng != nil {
		perm := cfg.rng.Perm(dims)
		feats = append(feats, perm[:cfg.FeatureSubset]...)
	} else {
		for d := 0; d < dims; d++ {
			feats = append(feats, d)
		}
	}
	bestGini := math.Inf(1)
	bestFeat, bestThresh := -1, 0.0
	for _, f := range feats {
		vals := make([]float64, len(idx))
		for j, i := range idx {
			vals[j] = rows[i][f]
		}
		candidates := splitCandidates(vals)
		for _, t := range candidates {
			g := splitGini(rows, labels, idx, f, t, cfg.classes)
			if g < bestGini {
				bestGini, bestFeat, bestThresh = g, f, t
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, false
	}
	return bestFeat, bestThresh, true
}

func splitCandidates(vals []float64) []float64 {
	sorted := append([]float64(nil), vals...)
	insertionSort(sorted)
	var out []float64
	const maxCand = 32
	stride := 1
	if len(sorted) > maxCand {
		stride = len(sorted) / maxCand
	}
	for i := stride; i < len(sorted); i += stride {
		if sorted[i] != sorted[i-1] {
			out = append(out, (sorted[i]+sorted[i-1])/2)
		}
	}
	// Always include the midpoint of the largest gap: subsampled strides
	// can step over a clean class boundary, and the largest gap is the
	// most likely place for one.
	gapAt, gap := -1, 0.0
	for i := 1; i < len(sorted); i++ {
		if d := sorted[i] - sorted[i-1]; d > gap {
			gap, gapAt = d, i
		}
	}
	if gapAt > 0 {
		out = append(out, (sorted[gapAt]+sorted[gapAt-1])/2)
	}
	return out
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func splitGini(rows [][]float64, labels, idx []int, feat int, thresh float64, classes int) float64 {
	counts := make([]int, 2*classes)
	loCounts, hiCounts := counts[:classes], counts[classes:]
	var nLo, nHi int
	for _, i := range idx {
		if rows[i][feat] <= thresh {
			loCounts[labels[i]]++
			nLo++
		} else {
			hiCounts[labels[i]]++
			nHi++
		}
	}
	if nLo == 0 || nHi == 0 {
		return math.Inf(1)
	}
	return (float64(nLo)*gini(loCounts, nLo) + float64(nHi)*gini(hiCounts, nHi)) / float64(nLo+nHi)
}

// gini sums over classes in order: a fixed order of float additions makes
// equal splits compare equal on every run.
func gini(counts []int, n int) float64 {
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

// Predict returns the predicted class of row.
func (t *DecisionTree) Predict(row []float64) int {
	n := t.root
	for !n.leaf {
		if row[n.feature] <= n.thresh {
			n = n.lo
		} else {
			n = n.hi
		}
	}
	return n.class
}

// RandomForest is a bagged ensemble of CART trees with per-split feature
// subsampling — the second supervised baseline from §4.3.4.
type RandomForest struct {
	trees   []*DecisionTree
	classes int
}

// FitForest trains nTrees trees on bootstrap samples of the data.
func FitForest(rows [][]float64, labels []int, nTrees int, seed int64) (*RandomForest, error) {
	if len(rows) == 0 || len(rows) != len(labels) {
		return nil, errors.New("cluster: bad training data")
	}
	if nTrees <= 0 {
		nTrees = 10
	}
	classes, err := classCount(labels)
	if err != nil {
		return nil, err
	}
	dims := len(rows[0])
	subset := int(math.Ceil(math.Sqrt(float64(dims))))
	rng := rand.New(rand.NewSource(seed))
	f := &RandomForest{classes: classes}
	for t := 0; t < nTrees; t++ {
		bootRows := make([][]float64, len(rows))
		bootLabels := make([]int, len(rows))
		for i := range bootRows {
			j := rng.Intn(len(rows))
			bootRows[i] = rows[j]
			bootLabels[i] = labels[j]
		}
		cfg := TreeConfig{
			MaxDepth:      10,
			MinLeafSize:   3,
			FeatureSubset: subset,
			rng:           rand.New(rand.NewSource(seed + int64(t)*31)),
		}
		tree, err := FitTree(bootRows, bootLabels, cfg)
		if err != nil {
			return nil, err
		}
		f.trees = append(f.trees, tree)
	}
	return f, nil
}

// Predict returns the plurality vote across trees, a tie going to the
// lowest class.
func (f *RandomForest) Predict(row []float64) int {
	votes := make([]int, f.classes)
	for _, t := range f.trees {
		votes[t.Predict(row)]++
	}
	return plurality(votes)
}
