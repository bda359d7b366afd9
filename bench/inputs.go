package main

import (
	"bytes"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"

	"repro/internal/datasets"
	"repro/internal/mmio"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// Everything a workload sends is a pure function of the -seed flag and
// the request's position in the workload's sequence, so two runs with
// one seed send identical traffic and the program only ever sees these
// generated inputs.

// mix is the splitmix64 finalizer: a cheap, allocation-free hash that
// turns (seed, index) pairs into independent-looking 64-bit values.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps (seed, stream, i) to a uniform value in [0, 1).
func unit(seed, stream, i uint64) float64 {
	return float64(mix(mix(seed^stream<<48)+i)>>11) / (1 << 53)
}

// taskSeed is the estimation seed of the cycle-th request for input id:
// fresh-seed workloads cycle through their inputs, so every request of a
// run carries a distinct (input, seed) pair and misses the result cache.
// It does not depend on the run seed, which orders each cycle: the
// answers of whole cycles are then the same estimation tasks under every
// run seed, and so is their estimate gap. It is never 0 (which the
// server reads as "default").
func taskSeed(cycle, id int) uint64 { return uint64(cycle)<<20 + uint64(id) + 1 }

// estKey is one estimation target: a workload over a Table II replica,
// scalar or at devices=3, with a fixed seed (0 = a fresh seed per
// request).
type estKey struct {
	id       int // position before the seeded shuffle
	workload string
	dataset  string
	devices  int
	seed     uint64
}

// searcherParam is the searcher each workload defaults to in hetserve,
// pinned in every request so the answer checker and the server agree on
// it by construction.
var searcherParam = map[string]string{"cc": "coarse-to-fine", "spmm": "race", "scalefree": "gradient"}

// defaultRepeats is hetserve's default repeat count, pinned likewise.
const defaultRepeats = 3

// query renders the /estimate query for the key with the given seed
// and repeat count.
func (k estKey) query(seed uint64, repeats int) string {
	q := url.Values{}
	q.Set("workload", k.workload)
	q.Set("dataset", k.dataset)
	q.Set("searcher", searcherParam[k.workload])
	q.Set("repeats", strconv.Itoa(repeats))
	q.Set("seed", strconv.FormatUint(seed, 10))
	if k.devices > 0 {
		q.Set("devices", strconv.Itoa(k.devices))
	}
	return q.Encode()
}

// coldKeys returns the cold-datasets key cycle: {cc, spmm} × 15
// replicas × {scalar, devices=3} plus scalefree × its 9 replicas (69
// keys), in a seeded shuffle.
func coldKeys(seed uint64) []estKey {
	var keys []estKey
	for _, d := range datasets.All() {
		for _, wl := range []string{"cc", "spmm"} {
			keys = append(keys, estKey{workload: wl, dataset: d.Name}, estKey{workload: wl, dataset: d.Name, devices: 3})
		}
	}
	for _, d := range datasets.ScaleFreeSet() {
		keys = append(keys, estKey{workload: "scalefree", dataset: d.Name})
	}
	number(keys)
	shuffle(seed, 1, keys)
	return keys
}

// hotKeys returns the hot-repeat key set: {cc, spmm} × 15 × seeds
// {1, 2}, scalefree × 9 × {1, 2} and {cc, spmm} × 15 at devices=3
// (seed 1) — 108 keys in a seeded order that fixes their Zipf ranks.
func hotKeys(seed uint64) []estKey {
	var keys []estKey
	for _, s := range []uint64{1, 2} {
		for _, d := range datasets.All() {
			for _, wl := range []string{"cc", "spmm"} {
				keys = append(keys, estKey{workload: wl, dataset: d.Name, seed: s})
			}
		}
		for _, d := range datasets.ScaleFreeSet() {
			keys = append(keys, estKey{workload: "scalefree", dataset: d.Name, seed: s})
		}
	}
	for _, d := range datasets.All() {
		for _, wl := range []string{"cc", "spmm"} {
			keys = append(keys, estKey{workload: wl, dataset: d.Name, devices: 3, seed: 1})
		}
	}
	number(keys)
	shuffle(seed, 2, keys)
	return keys
}

// number records each key's position before shuffling.
func number(keys []estKey) {
	for i := range keys {
		keys[i].id = i
	}
}

// shuffle permutes xs with a generator derived from (seed, stream).
func shuffle[T any](seed, stream uint64, xs []T) {
	r := xrand.New(mix(seed ^ stream<<40))
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// zipf draws ranks in [0, n) with P(r) ∝ 1/(r+1)^s, as a pure function
// of (seed, i).
type zipf struct {
	seed uint64
	cdf  []float64
}

func newZipf(seed uint64, n int, s float64) *zipf {
	z := &zipf{seed: seed, cdf: make([]float64, n)}
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -s)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	return z
}

func (z *zipf) rank(i int) int {
	u := unit(z.seed, 3, uint64(i))
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// matrixSpec describes one generated upload.
type matrixSpec struct {
	class   sparse.Class
	rows    int
	nnz     int
	genSeed uint64
}

func (m matrixSpec) String() string {
	return fmt.Sprintf("%s/%dx%d", m.class, m.rows, m.nnz)
}

// render generates the matrix and returns its MatrixMarket text.
func (m matrixSpec) render() ([]byte, error) {
	a, err := sparse.Generate(sparse.GenConfig{Class: m.class, Rows: m.rows, NNZ: m.nnz, Seed: m.genSeed})
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", m, err)
	}
	var buf bytes.Buffer
	if err := mmio.Write(&buf, a.ToCOO()); err != nil {
		return nil, fmt.Errorf("rendering %s: %w", m, err)
	}
	return buf.Bytes(), nil
}

// uploadClasses are the upload-cold structural classes.
var uploadClasses = []sparse.Class{sparse.ClassPowerLaw, sparse.ClassFEM, sparse.ClassUniform}

// The upload pools are fixed catalogs; -seed orders them. Pools drawn
// from the run seed moved the estimate gap by about a third between
// seeds — a few power-law cc answers dominate it — which no bound can
// hold, while a fixed catalog sent in whole cycles makes the gap the
// same estimation tasks under every seed.

// uploadSpecs returns the upload-cold pool: 48 matrices over {power-law,
// FEM, uniform}, 36 at 2k rows / 20k nnz and 12 at 20k rows / 200k nnz.
func uploadSpecs() []matrixSpec {
	specs := make([]matrixSpec, 48)
	for b := range specs {
		rows, nnz := 2000, 20000
		if b%4 == 3 {
			rows, nnz = 20000, 200000
		}
		specs[b] = matrixSpec{class: uploadClasses[b%3], rows: rows, nnz: nnz,
			genSeed: mix(5<<40 + uint64(b))}
	}
	return specs
}

// batchClasses and the row bands define batch-store's 8 structural
// families: each class at 600–900 rows and at 900–1,200 rows.
var batchClasses = []sparse.Class{sparse.ClassPowerLaw, sparse.ClassFEM, sparse.ClassUniform, sparse.ClassRoad}

// batchVariants is the number of variants per family.
const batchVariants = 16

// batchSpecs returns batch-store's 8 families × 16 variants, ~10 nnz
// per row. Variants of one family differ in size and generator seed
// only, so they are structural neighbours the threshold store can
// transfer between.
func batchSpecs() []matrixSpec {
	var specs []matrixSpec
	for f := 0; f < 2*len(batchClasses); f++ {
		base := 600
		if f >= len(batchClasses) {
			base = 900
		}
		for v := 0; v < batchVariants; v++ {
			rows := base + 20*v
			specs = append(specs, matrixSpec{class: batchClasses[f%len(batchClasses)], rows: rows, nnz: 10 * rows,
				genSeed: mix(6<<40 + uint64(f*batchVariants+v))})
		}
	}
	return specs
}

// renderAll renders every spec on GOMAXPROCS goroutines.
func renderAll(specs []matrixSpec) ([][]byte, error) {
	out := make([][]byte, len(specs))
	err := forEach(len(specs), func(i int) (err error) {
		out[i], err = specs[i].render()
		return err
	})
	return out, err
}

// plan is the request cycle of an upload workload: every body once per
// cycle, in groups that each hold one body of every class, so that any
// stretch of requests carries the same mix of sizes and structures and
// a measured window's cost does not hang on which bodies fell in it.
// The seed orders the bodies within each class.
type plan struct {
	order []int // body at each position of a cycle
	group int   // positions per group: the number of classes
}

// newPlan interleaves the classes, each shuffled by (seed, stream). The
// classes must be equally large.
func newPlan(seed, stream uint64, classes [][]int) plan {
	shuffled := make([][]int, len(classes))
	for k, c := range classes {
		shuffled[k] = append([]int(nil), c...)
		shuffle(seed, stream+uint64(k)<<8, shuffled[k])
	}
	p := plan{group: len(classes)}
	for i := range shuffled[0] {
		for _, c := range shuffled {
			p.order = append(p.order, c[i])
		}
	}
	return p
}

// at returns the body, workload and estimation seed of request seq.
// spmm and cc alternate along each group and from group to group, and
// every position swaps workload between consecutive cycles, so each
// pair of cycles estimates every body under both workloads. The seed
// depends on the cycle pair, the body and the workload — not on the run
// seed — so whole cycle pairs are the same estimation tasks under every
// run seed, and every request still misses the result cache.
func (p plan) at(seq int) (body int, workload string, seed uint64) {
	cycle, pos := seq/len(p.order), seq%len(p.order)
	body, workload = p.order[pos], "spmm"
	w := 0
	if (pos/p.group+pos%p.group+cycle)%2 == 1 {
		workload, w = "cc", 1
	}
	return body, workload, taskSeed(cycle/2, 2*body+w)
}

// classesBy groups the indices 0..n-1 by class(i), classes in order of
// first appearance.
func classesBy(n int, class func(i int) int) [][]int {
	var out [][]int
	pos := map[int]int{}
	for i := 0; i < n; i++ {
		c := class(i)
		k, ok := pos[c]
		if !ok {
			k = len(out)
			pos[c] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], i)
	}
	return out
}
