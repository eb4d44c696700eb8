package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteCSV serializes ds with a header row (feature names then the target
// name) followed by one record per line.
func WriteCSV(w io.Writer, ds *Dataset) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, ds.D()+1)
	for _, a := range ds.Schema.Features {
		header = append(header, a.Name)
	}
	header = append(header, ds.Schema.Target.Name)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	rec := make([]string, ds.D()+1)
	for i := 0; i < ds.N(); i++ {
		row := ds.Row(i)
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		rec[ds.D()] = strconv.FormatFloat(ds.Label(i), 'g', -1, 64)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing CSV record %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV. The header must contain
// every schema feature followed by the target, in schema order; this keeps
// file and schema honest about which columns mean what. A cell that does
// not parse as a number, or parses as NaN, is refused with its line and
// column.
func ReadCSV(r io.Reader, s *Schema) (*Dataset, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = s.D() + 1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	for j, a := range s.Features {
		if header[j] != a.Name {
			return nil, fmt.Errorf("dataset: CSV column %d is %q, schema expects %q", j, header[j], a.Name)
		}
	}
	if header[s.D()] != s.Target.Name {
		return nil, fmt.Errorf("dataset: CSV target column is %q, schema expects %q", header[s.D()], s.Target.Name)
	}
	ds := New(s)
	row := make([]float64, s.D()+1)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return ds, nil
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", line, err)
		}
		for j := range row {
			row[j], err = strconv.ParseFloat(rec[j], 64)
			if err == nil && math.IsNaN(row[j]) {
				err = errors.New("NaN is not a value")
			}
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV line %d column %q: %w", line, header[j], err)
			}
		}
		ds.Append(row[:s.D()], row[s.D()])
	}
}
