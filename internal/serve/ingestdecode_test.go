package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"funcmech/internal/census"
)

// parseFlatRows runs the ingest decoder's rows parser on a bare rows value:
// empty input or null yields no values, and nothing but whitespace may
// follow the array.
func parseFlatRows(raw []byte, want int, dst []float64) ([]float64, error) {
	i := skipJSONSpace(raw, 0)
	if i == len(raw) {
		return dst, nil
	}
	flat, i, err := parseRows(raw, i, want, dst)
	if err != nil {
		return flat, err
	}
	if skipJSONSpace(raw, i) != len(raw) {
		return flat, fmt.Errorf("trailing data after rows array")
	}
	return flat, nil
}

// referenceIngest decodes an ingest body with encoding/json alone: the
// envelope strictly (unknown keys refused, nothing but whitespace after
// it), then its rows value into [][]*float64. The envelope keeps rows raw,
// as the endpoint's contract says a repeated rows key replaces the earlier
// value; decoding every occurrence into [][]*float64 would instead keep
// the first type error of a value a later key replaced. A body is accepted
// when it carries at least one row and every row holds want non-null
// numbers.
func referenceIngest(body []byte, want int) ([]float64, bool) {
	var env struct {
		Rows json.RawMessage `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, false
	}
	var rows [][]*float64
	if len(env.Rows) == 0 || json.Unmarshal(env.Rows, &rows) != nil || len(rows) == 0 {
		return nil, false
	}
	var flat []float64
	for _, row := range rows {
		if len(row) != want {
			return nil, false
		}
		for _, v := range row {
			if v == nil {
				return nil, false
			}
			flat = append(flat, *v)
		}
	}
	return flat, true
}

// censusIngestBody renders n census records (13 features, then the
// target) as a JSON ingest body, numbers in shortest round-trip form: the
// shape producers send the ingest endpoint.
func censusIngestBody(n int, seed int64) (body []byte, flat []float64, width int) {
	ds := census.GenerateN(census.US(), n, seed)
	width = ds.D() + 1
	body = []byte(`{"rows":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		row := append(append([]float64(nil), ds.Row(i)...), ds.Label(i))
		body = append(body, '[')
		for j, v := range row {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, v, 'g', -1, 64)
		}
		body = append(body, ']')
		flat = append(flat, row...)
	}
	return append(body, "]}"...), flat, width
}

// TestParseFlatRowsMatchesEncodingJSON: for random batches round-tripped
// through encoding/json, the pooled flat parser must recover bit-identical
// values in row-major order.
func TestParseFlatRowsMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 50; round++ {
		n, w := 1+rng.Intn(40), 1+rng.Intn(6)
		rows := make([][]float64, n)
		want := make([]float64, 0, n*w)
		for i := range rows {
			rows[i] = make([]float64, w)
			for j := range rows[i] {
				v := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(13)-6))
				rows[i][j] = v
				want = append(want, v)
			}
		}
		raw, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseFlatRows(raw, w, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d values, want %d", round, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d value %d: %v != %v (want bit-identical)", round, i, got[i], want[i])
			}
		}
	}
}

func TestParseFlatRowsAcceptsJSONShapes(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want []float64
	}{
		{``, nil},
		{`null`, nil},
		{`[]`, nil},
		{` [ [ 1 , 2.5 ] , [ -3e2 , 0.125 ] ] `, []float64{1, 2.5, -300, 0.125}},
		{"[[1,2],\n[3,4]]", []float64{1, 2, 3, 4}},
	} {
		got, err := parseFlatRows([]byte(tc.raw), 2, nil)
		if err != nil {
			t.Fatalf("%q: %v", tc.raw, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) && len(got)+len(tc.want) > 0 {
			t.Fatalf("%q: got %v, want %v", tc.raw, got, tc.want)
		}
	}
}

func TestParseFlatRowsRejectsMalformedInput(t *testing.T) {
	for _, raw := range []string{
		`{"a":1}`,          // not an array
		`[1,2]`,            // rows must be arrays
		`[[1,2],[3]]`,      // ragged row
		`[[1,2,3]]`,        // too wide
		`[["x",2]]`,        // non-number
		`[[null,2]]`,       // null value
		`[[+1,2]]`,         // leading plus is not JSON
		`[[.5,2]]`,         // bare dot is not JSON
		`[[1,2]`,           // unterminated outer
		`[[1,2],]`,         // trailing comma
		`[[1,2]] extra`,    // trailing garbage
		`[[1e,2]]`,         // broken exponent
		`[[1,2],"oops"]`,   // non-array row
		`[[NaN,2]]`,        // NaN literal is not JSON
		`[[Infinity,2]]`,   // Infinity literal is not JSON
		`[[1 2]]`,          // missing comma
		`[[1,,2]]`,         // double comma
		`[[0x1F,2]]`,       // hex is not JSON
		`[[1_000,2]]`,      // underscores are not JSON
		`[[01,2]]`,         // leading zero is not JSON
		`[[1.,2]]`,         // trailing dot is not JSON
		`[[1.e5,2]]`,       // empty fraction is not JSON
		`[[-,2]]`,          // bare sign
		`[[1e+,2]]`,        // empty exponent digits
		`[[1,2]][[3,4]]`,   // second array after close
		`[[12345678,2],3]`, // scalar after row
	} {
		if _, err := parseFlatRows([]byte(raw), 2, nil); err == nil {
			t.Errorf("%q: expected error", raw)
		}
	}
}

// TestDecodeIngestBodyEnvelope pins the envelope contract: keys match rows
// the way encoding/json matches a field, a repeated rows key replaces the
// earlier value, and the verdict and values agree with referenceIngest.
func TestDecodeIngestBodyEnvelope(t *testing.T) {
	deep := func(depth int) string { // an array value nested depth levels
		return strings.Repeat("[", depth) + strings.Repeat("]", depth)
	}
	for _, tc := range []struct {
		body string
		want []float64 // nil: refused, or accepted with no rows
	}{
		{`{"rows":[[1,2],[3,4]]}`, []float64{1, 2, 3, 4}},
		{" \t\n{ \"rows\" : [ [ 1 , 2 ] ] } \r\n", []float64{1, 2}},
		{`{"ROWS":[[1,2]]}`, []float64{1, 2}},
		{`{"Rows":[[1,2]]}`, []float64{1, 2}},
		{`{"rowſ":[[1,2]]}`, []float64{1, 2}},
		{`{"\u0072ows":[[1,2]]}`, []float64{1, 2}},
		{`{"r\u006FWS":[[1,2]]}`, []float64{1, 2}},
		{`{"rows":[[1,2]],"rows":[[3,4]]}`, []float64{3, 4}},
		{`{"rows":[[1,2]],"ROWS":null}`, nil},
		{`{"rows":"x","rows":[[3,4]]}`, []float64{3, 4}},
		{`{"rows":[[1e309,0]],"rows":[[3,4]]}`, []float64{3, 4}},
		{`{"rows":[[1,2,3]],"rows":[[3,4]]}`, []float64{3, 4}},
		{`{"rows":{"a":[true,false,null,-1.5e3,"\u00e9"]},"rows":[[3,4]]}`, []float64{3, 4}},
		{`{"rows":` + deep(maxJSONDepth-1) + `,"rows":[[3,4]]}`, []float64{3, 4}},
		{`{"rows":` + deep(maxJSONDepth) + `,"rows":[[3,4]]}`, nil},
		{`{"rows":[[3,4]],"rows":"x"}`, nil},
		{`{"rows":[[1,2]],"extra":1}`, nil},
		{`{"extra":1,"rows":[[1,2]]}`, nil},
		{`{"row":[[1,2]]}`, nil},
		{`{"rowss":[[1,2]]}`, nil},
		{`{"ro\u0077s\u0000":[[1,2]]}`, nil},
		{`{}`, nil},
		{`{"rows":null}`, nil},
		{`{"rows":[]}`, nil},
		{`null`, nil},
		{`[[1,2]]`, nil},
		{``, nil},
		{`{"rows":[[1,2]]`, nil},
		{`{"rows":[[1,2]],}`, nil},
		{`{"rows":[[1,2]]} garbage`, nil},
		{`{"rows":[[0.5,0.5]]} {"rows":[[1,1]]}`, nil},
		{`{"rows":[[1,2]]}]`, nil},
		{`{"rows" [[1,2]]}`, nil},
		{`{rows:[[1,2]]}`, nil},
		{"{\"rows\":[[1,2]],\"a\tb\":1}", nil},
		{`{"rows":[[1,2]],"rows":[[1,2]`, nil},
		{`{"rows":"x","rows":tru}`, nil},
		{`{"rows":[[-0,1e-400]]}`, []float64{math.Copysign(0, -1), 0}},
		{`{"rows":[[0.1,18064.540122793587]]}`, []float64{0.1, 18064.540122793587}},
		{`{"rows":[[123456789012345678,1E+2]]}`, []float64{123456789012345678, 100}},
		{`{"rows":[[1e309,0]]}`, nil},
		{`{"rows":[[1,null]]}`, nil},
		{`{"rows":[null]}`, nil},
	} {
		got, err := decodeIngestBody([]byte(tc.body), 2, nil)
		accepted := err == nil && len(got) > 0
		ref, refOK := referenceIngest([]byte(tc.body), 2)
		if accepted != (tc.want != nil) || refOK != accepted {
			t.Errorf("%.80q: decoder accepted=%v (err %v), reference %v, want %v", tc.body, accepted, err, refOK, tc.want != nil)
			continue
		}
		for i := range tc.want {
			if math.Float64bits(got[i]) != math.Float64bits(tc.want[i]) || math.Float64bits(ref[i]) != math.Float64bits(tc.want[i]) {
				t.Errorf("%q value %d: decoder %v, reference %v, want %v", tc.body, i, got[i], ref[i], tc.want[i])
			}
		}
	}
}

// TestDecodeIngestBodyNumbersMatchParseFloat checks the one-pass number
// scan — the exact fast path and the strconv fallback alike — against
// strconv.ParseFloat on random JSON number literals of every shape the
// grammar allows: short and long mantissas, leading fraction zeros,
// exponents inside and outside the exact range.
func TestDecodeIngestBodyNumbersMatchParseFloat(t *testing.T) {
	// Exponents of six or more digits, which strconv saturates: a
	// leading-zero fraction can bring such a literal back into the fast
	// path's range, where the scan must read the decimal strconv reads.
	tenth := func(n int) string { return "0." + strings.Repeat("0", n-1) + "1" } // 10⁻ⁿ
	for _, tok := range []string{
		tenth(1000) + "e1000", tenth(1000) + "e10000", tenth(10000) + "e100000", tenth(100000) + "e100000",
		"1e100000", "1e-100000", "-0e999999999999",
	} {
		want, err := strconv.ParseFloat(tok, 64)
		got, derr := decodeIngestBody([]byte(`{"rows":[[`+tok+`]]}`), 1, nil)
		if (err == nil) != (derr == nil) || err == nil && math.Float64bits(got[0]) != math.Float64bits(want) {
			t.Errorf("%.12s…%s: decoder %v (err %v), ParseFloat %v (err %v)", tok, tok[len(tok)-8:], got, derr, want, err)
		}
	}
	rng := rand.New(rand.NewSource(22))
	digits := func(n int, lead bool) string {
		var sb strings.Builder
		for k := 0; k < n; k++ {
			d := rng.Intn(10)
			if k == 0 && lead && d == 0 {
				d = 1 + rng.Intn(9)
			}
			sb.WriteByte(byte('0' + d))
		}
		return sb.String()
	}
	var body []byte
	for round := 0; round < 200000; round++ {
		tok := ""
		if rng.Intn(2) == 0 {
			tok = "-"
		}
		if rng.Intn(4) == 0 {
			tok += "0"
		} else {
			tok += digits(1+rng.Intn(19), true)
		}
		if rng.Intn(2) == 0 {
			tok += "." + strings.Repeat("0", rng.Intn(4)*rng.Intn(8)) + digits(1+rng.Intn(18), false)
		}
		if rng.Intn(2) == 0 {
			tok += "eE"[rng.Intn(2):][:1] + []string{"", "+", "-"}[rng.Intn(3)] + strconv.Itoa(rng.Intn(40))
		}
		want, err := strconv.ParseFloat(tok, 64)
		body = append(append(append(body[:0], `{"rows":[[`...), tok...), "]]}"...)
		got, derr := decodeIngestBody(body, 1, nil)
		if (err == nil) != (derr == nil) {
			t.Fatalf("%s: ParseFloat err %v, decoder err %v", tok, err, derr)
		}
		if err == nil && math.Float64bits(got[0]) != math.Float64bits(want) {
			t.Fatalf("%s: decoder %v (%#x), ParseFloat %v (%#x)", tok, got[0], math.Float64bits(got[0]), want, math.Float64bits(want))
		}
	}
}

// TestDecodeIngestBodyAllocatesNothing pins the zero-allocation claim: a
// warm decode of a census-shaped 512-row body reuses its buffer.
func TestDecodeIngestBodyAllocatesNothing(t *testing.T) {
	body, want, width := censusIngestBody(512, 1)
	dst, err := decodeIngestBody(body, width, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d: %v, want %v", i, dst[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst, err = decodeIngestBody(body, width, dst[:0])
	})
	if err != nil || allocs != 0 {
		t.Fatalf("warm decode: %v allocs/op (err %v), want 0", allocs, err)
	}
}

// BenchmarkDecodeIngestBody is the decode half of a JSON ingest request:
// one census-shaped 512-row body into a warm buffer.
func BenchmarkDecodeIngestBody(b *testing.B) {
	body, _, width := censusIngestBody(512, 1)
	dst := make([]float64, 0, 512*width)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = decodeIngestBody(body, width, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
