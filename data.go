package funcmech

import (
	"fmt"
	"io"

	"funcmech/internal/dataset"
)

// Attribute describes one column of a dataset together with its public
// domain bounds. The bounds drive normalization and must be domain
// knowledge, not statistics of the sensitive data. Width returns Max − Min.
type Attribute = dataset.Attribute

// Schema is a dataset layout: feature attributes plus the regression target.
// Validate reports whether it is usable (non-empty domains, unique names);
// CheckBatch is the raw-batch check every ingestion entry point applies.
// The library copies a Schema (Clone) wherever it keeps one, so a caller's
// later edits never reach a dataset, an accumulator or a model.
type Schema = dataset.Schema

// Dataset is an in-memory training table in raw (un-normalized) units.
type Dataset struct {
	inner *dataset.Dataset
}

// NewDataset returns an empty dataset with the given schema. It panics on an
// invalid schema (programming error); use Schema.Validate to check first.
func NewDataset(s Schema) *Dataset {
	return &Dataset{inner: dataset.New(s.Clone())}
}

// Append adds one record: a feature vector in schema order plus the target
// value. The values are copied into the dataset's flat columnar storage.
func (d *Dataset) Append(features []float64, target float64) {
	d.inner.Append(features, target)
}

// AppendBatch adds k records at once: flat row-major feature storage of
// k·NumFeatures() values plus k targets, copied in one bulk operation.
func (d *Dataset) AppendBatch(features []float64, targets []float64) {
	d.inner.AppendBatch(features, targets)
}

// Grow pre-sizes the dataset for n additional records, so a bulk loader can
// append without reallocation.
func (d *Dataset) Grow(n int) { d.inner.Grow(n) }

// Len returns the number of records.
func (d *Dataset) Len() int { return d.inner.N() }

// NumFeatures returns the feature dimensionality d.
func (d *Dataset) NumFeatures() int { return d.inner.D() }

// Schema returns a copy of the dataset's schema.
func (d *Dataset) Schema() Schema { return *d.inner.Schema.Clone() }

// Record returns the i-th feature vector (a copy) and target value.
func (d *Dataset) Record(i int) ([]float64, float64) {
	if i < 0 || i >= d.inner.N() {
		panic(fmt.Sprintf("funcmech: record %d out of range [0,%d)", i, d.inner.N()))
	}
	row := make([]float64, d.inner.D())
	copy(row, d.inner.Row(i))
	return row, d.inner.Label(i)
}

// WriteCSV serializes the dataset with a header row.
func (d *Dataset) WriteCSV(w io.Writer) error { return dataset.WriteCSV(w, d.inner) }

// ReadDatasetCSV parses a dataset written by WriteCSV; the header must match
// the schema's column names in order. A cell that does not parse, or parses
// to NaN, is refused with its line and column.
func ReadDatasetCSV(r io.Reader, s Schema) (*Dataset, error) {
	inner, err := dataset.ReadCSV(r, s.Clone())
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: inner}, nil
}
