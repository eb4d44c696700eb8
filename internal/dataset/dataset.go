package dataset

import (
	"fmt"
	"math/rand"
	"sort"
)

// Dataset is an in-memory table: n feature rows plus the target column.
//
// Feature storage is a single flat row-major array with stride D() — record
// i's features live at x[i·d : (i+1)·d] — so the O(n·d²) objective sweep
// streams through contiguous memory instead of chasing one heap object per
// record. Rows are treated as immutable once appended; Append copies, so the
// caller keeps ownership of its slices, and Row returns a view into the flat
// storage.
type Dataset struct {
	Schema *Schema
	x      []float64 // flat row-major feature storage, len = n·stride
	ys     []float64
	stride int // == Schema.D(), cached to keep Row() free of pointer chasing
}

// New returns an empty dataset with the given schema.
func New(s *Schema) *Dataset {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return &Dataset{Schema: s, stride: s.D()}
}

// NewWithCapacity returns an empty dataset pre-sized for n rows: one backing
// array of n·d floats plus the target column, no per-record allocations.
func NewWithCapacity(s *Schema, n int) *Dataset {
	d := New(s)
	d.x = make([]float64, 0, n*d.stride)
	d.ys = make([]float64, 0, n)
	return d
}

// Grow ensures capacity for n additional records beyond the current count,
// so a bulk loader can pre-size once and append allocation-free.
func (d *Dataset) Grow(n int) {
	if n <= 0 {
		return
	}
	if need := (d.N() + n) * d.stride; cap(d.x) < need {
		nx := make([]float64, len(d.x), need)
		copy(nx, d.x)
		d.x = nx
	}
	if need := d.N() + n; cap(d.ys) < need {
		ny := make([]float64, len(d.ys), need)
		copy(ny, d.ys)
		d.ys = ny
	}
}

// Append adds one record, copying the feature slice into the flat storage;
// the caller keeps ownership of x.
func (d *Dataset) Append(x []float64, y float64) {
	if len(x) != d.stride {
		panic(fmt.Sprintf("dataset: Append row with %d features, schema has %d", len(x), d.stride))
	}
	d.x = append(d.x, x...)
	d.ys = append(d.ys, y)
}

// AppendAlloc extends the dataset by one record with label y and returns the
// record's writable feature row (zero-valued), a view into the flat storage.
// Callers that compute rows (normalization, intercept augmentation,
// projection) fill the returned slice in place instead of allocating a
// scratch row per record. The row must be filled before the next append.
func (d *Dataset) AppendAlloc(y float64) []float64 {
	n := len(d.x)
	d.x = append(d.x, make([]float64, d.stride)...)
	d.ys = append(d.ys, y)
	return d.x[n : n+d.stride : n+d.stride]
}

// AppendBatch adds k records at once from flat row-major feature storage
// (len(xs) must equal len(ys)·d). One bulk copy, no per-record work.
func (d *Dataset) AppendBatch(xs []float64, ys []float64) {
	if len(xs) != len(ys)*d.stride {
		panic(fmt.Sprintf("dataset: AppendBatch with %d feature values for %d records of width %d",
			len(xs), len(ys), d.stride))
	}
	d.x = append(d.x, xs...)
	d.ys = append(d.ys, ys...)
}

// N returns the number of records.
func (d *Dataset) N() int { return len(d.ys) }

// D returns the number of feature attributes.
func (d *Dataset) D() int { return d.stride }

// Row returns the feature vector of record i: a view into the flat storage
// (not a copy), capped so it cannot be appended through.
func (d *Dataset) Row(i int) []float64 {
	lo := i * d.stride
	return d.x[lo : lo+d.stride : lo+d.stride]
}

// FlatRows returns the contiguous row-major feature storage of records
// [lo, hi) with stride D() — the input the blocked objective kernel consumes.
// The slice is a view; treat it as read-only.
func (d *Dataset) FlatRows(lo, hi int) []float64 {
	if lo < 0 || hi > d.N() || lo > hi {
		panic(fmt.Sprintf("dataset: FlatRows range [%d,%d) out of range [0,%d)", lo, hi, d.N()))
	}
	return d.x[lo*d.stride : hi*d.stride : hi*d.stride]
}

// Label returns the target value of record i.
func (d *Dataset) Label(i int) float64 { return d.ys[i] }

// Labels returns the full target column (not a copy).
func (d *Dataset) Labels() []float64 { return d.ys }

// Subset returns a dataset containing copies of the rows at the given
// indices. With flat storage a gather cannot share the parent's backing
// array, so this is an O(k·d) copy (it was a share before the columnar
// refactor; rows are immutable either way, so behavior is unchanged).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := NewWithCapacity(d.Schema, len(idx))
	for _, i := range idx {
		if i < 0 || i >= d.N() {
			panic(fmt.Sprintf("dataset: Subset index %d out of range [0,%d)", i, d.N()))
		}
		out.x = append(out.x, d.Row(i)...)
		out.ys = append(out.ys, d.ys[i])
	}
	return out
}

// Sample returns a uniform random subset with the given sampling rate in
// (0, 1]; the paper's cardinality sweep uses rates 0.1 … 1.0. Rows keep
// their relative order.
func (d *Dataset) Sample(rng *rand.Rand, rate float64) *Dataset {
	if rate <= 0 || rate > 1 {
		panic(fmt.Sprintf("dataset: sampling rate %v outside (0,1]", rate))
	}
	if rate == 1 {
		return d.Subset(sequence(d.N()))
	}
	k := int(float64(d.N())*rate + 0.5)
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(d.N())[:k]
	// Restore order for determinism of downstream folds.
	idx := append([]int(nil), perm...)
	sort.Ints(idx)
	return d.Subset(idx)
}

// Project returns a dataset restricted to the named feature columns,
// copying the selected values into fresh rows.
func (d *Dataset) Project(names []string) (*Dataset, error) {
	ps, err := d.Schema.Project(names)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(names))
	for i, n := range names {
		cols[i] = d.Schema.FeatureIndex(n)
	}
	out := NewWithCapacity(ps, d.N())
	for r := 0; r < d.N(); r++ {
		src := d.Row(r)
		row := out.AppendAlloc(d.ys[r])
		for i, c := range cols {
			row[i] = src[c]
		}
	}
	return out, nil
}

// BinarizeTarget returns a copy whose target is 1 when y > threshold and 0
// otherwise, with the target domain updated to {0,1} — the paper's
// conversion of Annual Income for logistic regression (§7). The feature
// storage is copied in one bulk operation.
func (d *Dataset) BinarizeTarget(threshold float64) *Dataset {
	s := d.Schema.Clone()
	s.Target = Attribute{Name: s.Target.Name, Min: 0, Max: 1}
	out := New(s)
	out.x = append([]float64(nil), d.x...)
	out.ys = make([]float64, d.N())
	for i, y := range d.ys {
		if y > threshold {
			out.ys[i] = 1
		}
	}
	return out
}

func sequence(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
