package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzParseFlatRows differential-fuzzes the zero-allocation ingest decoder
// against encoding/json: whenever the scanner accepts an input, the generic
// [][]float64 decode must accept it too and yield bit-identical values — the
// decoder's contract is "same values, no allocations", never "different
// parse".
func FuzzParseFlatRows(f *testing.F) {
	f.Add([]byte(`[[1,2,3],[4,5,6]]`), 3)
	f.Add([]byte(`[[1.5e-3,-0,2]]`), 3)
	f.Add([]byte(`[]`), 2)
	f.Add([]byte(`null`), 2)
	f.Add([]byte(` [[0.1 , 2 ] ] `), 2)
	f.Add([]byte(`[[1,2],[3]]`), 2)
	f.Add([]byte(`[[1e309,0]]`), 2)
	f.Fuzz(func(t *testing.T, raw []byte, want int) {
		if want < 1 || want > 32 {
			return
		}
		flat, err := parseFlatRows(raw, want, nil)
		if err != nil {
			return
		}
		if len(flat)%want != 0 {
			t.Fatalf("accepted %d values, not a multiple of width %d", len(flat), want)
		}
		trimmed := bytes.TrimSpace(raw)
		if len(trimmed) == 0 || string(trimmed) == "null" {
			if len(flat) != 0 {
				t.Fatalf("empty/null input produced %d values", len(flat))
			}
			return
		}
		var rows [][]float64
		if jerr := json.Unmarshal(raw, &rows); jerr != nil {
			t.Fatalf("scanner accepted %q but encoding/json rejects it: %v", raw, jerr)
		}
		var ref []float64
		for i, row := range rows {
			if len(row) != want {
				t.Fatalf("scanner accepted row %d of width %d (want %d) in %q", i, len(row), want, raw)
			}
			ref = append(ref, row...)
		}
		if len(ref) != len(flat) {
			t.Fatalf("scanner decoded %d values, encoding/json %d, from %q", len(flat), len(ref), raw)
		}
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(flat[i]) {
				t.Fatalf("value %d diverged: scanner %v, encoding/json %v, from %q", i, flat[i], ref[i], raw)
			}
		}
	})
}

// FuzzIngestBody differential-fuzzes the one-pass ingest decoder against
// the standard library on whole request bodies, envelope and trailing
// bytes included, in both directions: the decoder accepts a body exactly
// when referenceIngest does, and then with bit-identical values.
func FuzzIngestBody(f *testing.F) {
	for _, seed := range []string{
		`{"rows":[[1,2],[3,4]]}`,
		`{"ROWS":[[1,2]]}`,
		`{"Rows":[[1,2]]}`,
		`{"rowſ":[[1,2]]}`,
		`{"\u0072ows":[[1,2]]}`,
		`{"roWS":[[1,2]]}`,
		`{"rows":[[1,2]],"rows":[[3,4]]}`,
		`{"rows":"x","rows":[[3,4]]}`,
		`{"rows":[[1,2]],"extra":1}`,
		`{"extra":{"rows":[[1,2]]}}`,
		`{"rows":[[1,2]]} garbage`,
		`{"rows":[[0.5,0.5]]} {"rows":[[1,1]]}`,
		" {\"rows\" : [ [ 1 , 2 ] ] } \n",
		`{"rows":[[-0,1e309]]}`,
		`{"rows":[[1e-400,0.1]]}`,
		`{"rows":[[18064.540122793587,123456789012345678]]}`,
		`{"rows":[[1,null]]}`,
		`{"rows":null}`,
		`{}`,
		`null`,
	} {
		f.Add([]byte(seed), 2)
	}
	f.Fuzz(func(t *testing.T, body []byte, want int) {
		if want < 1 || want > 32 {
			return
		}
		got, err := decodeIngestBody(body, want, nil)
		accepted := err == nil && len(got) > 0
		ref, refOK := referenceIngest(body, want)
		if accepted != refOK {
			t.Fatalf("decoder accepted=%v (err %v), encoding/json accepted=%v, for %q", accepted, err, refOK, body)
		}
		if !accepted {
			return
		}
		if len(got) != len(ref) {
			t.Fatalf("decoder decoded %d values, encoding/json %d, from %q", len(got), len(ref), body)
		}
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
				t.Fatalf("value %d diverged: decoder %v, encoding/json %v, from %q", i, got[i], ref[i], body)
			}
		}
	})
}
