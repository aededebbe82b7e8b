package sim

import (
	"fmt"
	"io"

	"bmeh/internal/bitkey"
	"bmeh/internal/core"
	"bmeh/internal/pagestore"
)

// Shape is the size of one BMEH-tree directory.
type Shape struct {
	Nodes  int
	Sigma  int // σ = nodes × 2^φ
	Levels int
}

// BulkRow compares the directory Tree.BulkLoad builds with the one
// insertion leaves for the same keys (DESIGN.md § Bulk loading; not in
// the paper).
type BulkRow struct {
	Config Config
	Insert Shape
	Bulk   Shape
}

// RunBulk builds the BMEH-tree of each of Tables 2–4's workloads at every
// page capacity twice, once by Insert and once by BulkLoad, and then the
// 2-d workloads again at the asymmetric ξ = ⟨5,4⟩, where the two
// directories differ. progress, if non-nil, is called before each row.
func RunBulk(n int, seed int64, progress func(cfg Config)) ([]BulkRow, error) {
	var cfgs []Config
	for _, spec := range Tables {
		for _, b := range Capacities {
			cfgs = append(cfgs, Config{Dist: spec.Dist, Dims: spec.Dims, Capacity: b})
		}
	}
	for _, dist := range []Distribution{Uniform, Normal} {
		for _, b := range Capacities {
			cfgs = append(cfgs, Config{Dist: dist, Dims: 2, Capacity: b, Xi: []int{5, 4}})
		}
	}
	var rows []BulkRow
	for _, cfg := range cfgs {
		cfg.Scheme, cfg.N, cfg.Seed = BMEHTree, n, seed
		cfg = cfg.withDefaults()
		if progress != nil {
			progress(cfg)
		}
		row, err := runBulkRow(cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: bulk, %d-d %v b=%d: %w", cfg.Dims, cfg.Dist, cfg.Capacity, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runBulkRow(cfg Config) (BulkRow, error) {
	prm := cfg.Params()
	if err := prm.Validate(); err != nil {
		return BulkRow{}, err
	}
	keys := cfg.generator().Take(cfg.N)
	inc, err := core.New(pagestore.NewMemDisk(core.PageBytes(prm)), prm)
	if err != nil {
		return BulkRow{}, err
	}
	for i, k := range keys {
		if err := inc.Insert(k, uint64(i)); err != nil {
			return BulkRow{}, err
		}
	}
	bulk, err := core.New(pagestore.NewMemDisk(core.PageBytes(prm)), prm)
	if err != nil {
		return BulkRow{}, err
	}
	i := 0
	if _, err := bulk.BulkLoad(func() (bitkey.Vector, uint64, bool, error) {
		if i == len(keys) {
			return nil, 0, false, nil
		}
		i++
		return keys[i-1], uint64(i - 1), true, nil
	}, core.BulkOptions{}); err != nil {
		return BulkRow{}, err
	}
	shape := func(t *core.Tree) Shape {
		return Shape{Nodes: t.Nodes(), Sigma: t.DirectoryElements(), Levels: t.Levels()}
	}
	return BulkRow{Config: cfg, Insert: shape(inc), Bulk: shape(bulk)}, nil
}

// FormatBulk writes the bulk-against-insert comparison as a table.
func FormatBulk(w io.Writer, n int, rows []BulkRow) {
	fmt.Fprintf(w, "Bulk load against insertion: BMEH-tree directory (N=%d)\n", n)
	const layout = "%-12s %-7s %3v %13v %9v %7v %11v %9v %7v\n"
	fmt.Fprintf(w, layout, "keys", "ξ", "b", "insert nodes", "σ", "levels", "bulk nodes", "σ", "levels")
	for _, r := range rows {
		fmt.Fprintf(w, layout, fmt.Sprintf("%d-d %v", r.Config.Dims, r.Config.Dist), fmt.Sprint(r.Config.Params().Xi),
			r.Config.Capacity, r.Insert.Nodes, r.Insert.Sigma, r.Insert.Levels, r.Bulk.Nodes, r.Bulk.Sigma, r.Bulk.Levels)
	}
}
