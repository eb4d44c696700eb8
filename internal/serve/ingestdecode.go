package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// The ingest endpoint is the service's highest-volume path. Its JSON body
// is read once into a pooled byte buffer (readBody, shared with the fmbin
// branch) and then scanned once: decodeIngestBody parses the {"rows": …}
// envelope, the row arrays and every number in a single left-to-right pass,
// appending values straight into a pooled flat []float64. The number scan
// checks RFC 8259's grammar while it builds the decimal mantissa, so a
// number with at most 15 significant digits and a decimal exponent within
// ±22 is converted exactly by one float64 multiply or divide (Clinger 1990,
// "How to Read Floating Point Numbers Accurately"); any other number goes to
// strconv.ParseFloat — the routine encoding/json uses — on the token the scan
// has already validated. Either way the bits are those encoding/json would
// produce, and a warm decode allocates nothing.
//
// The scanner accepts and rejects what the strict decoder (decodeBody)
// would for an envelope with a single raw rows field: keys match "rows"
// exactly or case-insensitively after unescaping, any other key is
// refused, and a repeated rows key overrides the earlier value — which then
// only has to be valid JSON. Nothing but whitespace may follow the envelope.

// ingestBufPool recycles flat decode buffers across ingest requests.
var ingestBufPool = sync.Pool{New: func() any { return new([]float64) }}

// maxJSONDepth is encoding/json's nesting limit: the decoder refuses a value
// nested more deeply than this, counting the envelope object as level 1.
const maxJSONDepth = 10000

// pow10 holds the powers of ten that float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return c-'0' <= 9 }

// skipJSONSpace advances i past any JSON whitespace in raw. A top-level
// helper rather than a closure so the hot decode path stays closure-free
// (see //fm:noalloc on decodeIngestBody). Every JSON space byte is ≤ ' ',
// so one comparison passes the common non-space byte.
func skipJSONSpace(raw []byte, i int) int {
	for i < len(raw) && raw[i] <= ' ' && isJSONSpace(raw[i]) {
		i++
	}
	return i
}

// literalEnd returns the index just past lit at b[i:], or -1 when b[i:]
// does not start with it.
func literalEnd(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// jsonSyntaxError describes malformed JSON at b[i].
func jsonSyntaxError(b []byte, i int) error {
	if i >= len(b) {
		return errors.New("unexpected end of JSON body")
	}
	return fmt.Errorf("invalid JSON at byte %d (%q)", i, b[i])
}

// decodeJSONIngestBody reads the JSON ingest body of r into a pooled buffer
// and appends its rows, each of width want, to dst. On error the response
// has already been written.
func (s *Server) decodeJSONIngestBody(w http.ResponseWriter, r *http.Request, want int, dst []float64) ([]float64, bool) {
	bufp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bufp)
	body, err := readBody(w, r, (*bufp)[:0])
	*bufp = body[:0] // keep the grown capacity for the next request
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "bad request body: %v", err)
		return dst, false
	}
	flat, err := decodeIngestBody(body, want, dst)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "bad request body: %v", err)
		return flat, false
	}
	return flat, true
}

// decodeIngestBody parses a whole ingest body — one JSON object whose only
// key is rows, then optional whitespace — appending the rows, each of width
// want, to dst in row-major order. A missing, null or empty rows array
// yields no values (the stream layer rejects empty batches with its own
// error). On error the returned slice is dst truncated to its input length.
//
//fm:noalloc
func decodeIngestBody(b []byte, want int, dst []float64) ([]float64, error) {
	base := len(dst)
	i := skipJSONSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return dst, fmt.Errorf("the body must be a JSON object with a rows array")
	}
	i = skipJSONSpace(b, i+1)
	// pending is the row-contract error of the latest rows value. It stands
	// only if no later rows key replaces that value.
	var pending error
	if i < len(b) && b[i] == '}' {
		i++
	} else {
		for {
			end, plain := scanString(b, i)
			if end < 0 {
				return dst[:base], jsonSyntaxError(b, i)
			}
			if !isRowsKey(b[i:end], plain) {
				return dst[:base], fmt.Errorf("unknown field %s", b[i:end])
			}
			i = skipJSONSpace(b, end)
			if i >= len(b) || b[i] != ':' {
				return dst[:base], jsonSyntaxError(b, i)
			}
			i = skipJSONSpace(b, i+1)
			start := i
			var err error
			dst, i, err = parseRows(b, i, want, dst[:base])
			pending = nil
			if err != nil {
				dst = dst[:base]
				if i = skipValue(b, start, 2); i < 0 {
					return dst, jsonSyntaxError(b, start)
				}
				pending = err
			}
			i = skipJSONSpace(b, i)
			if i < len(b) && b[i] == ',' {
				i = skipJSONSpace(b, i+1)
				continue
			}
			if i < len(b) && b[i] == '}' {
				i++
				break
			}
			return dst[:base], jsonSyntaxError(b, i)
		}
	}
	if i = skipJSONSpace(b, i); i != len(b) {
		return dst[:base], fmt.Errorf("trailing data after the JSON body at byte %d", i)
	}
	if pending != nil {
		return dst[:base], pending
	}
	return dst, nil
}

// isRowsKey reports whether the quoted key names the rows field the way
// encoding/json matches a field: exactly, or case-insensitively after
// unescaping. plain keys (ASCII, no escapes) are compared in place.
func isRowsKey(quoted []byte, plain bool) bool {
	if !plain {
		return unquotedFoldsToRows(quoted)
	}
	k := quoted[1 : len(quoted)-1]
	return len(k) == 4 && k[0]|0x20 == 'r' && k[1]|0x20 == 'o' && k[2]|0x20 == 'w' && k[3]|0x20 == 's'
}

// unquotedFoldsToRows is isRowsKey's rare path for escaped or non-ASCII
// keys ("\u0072ows", "rowſ"): encoding/json unquotes them, Unicode case
// folding compares.
func unquotedFoldsToRows(quoted []byte) bool {
	var key string
	return json.Unmarshal(quoted, &key) == nil && strings.EqualFold(key, "rows")
}

// parseRows parses the rows value at b[i:] — null, or an array of arrays
// of exactly want numbers — appending the numbers to dst. It returns the
// index just past the value.
//
//fm:noalloc
func parseRows(b []byte, i, want int, dst []float64) ([]float64, int, error) {
	if end := literalEnd(b, i, "null"); end >= 0 {
		return dst, end, nil
	}
	if i >= len(b) || b[i] != '[' {
		return dst, i, fmt.Errorf("rows must be an array of arrays")
	}
	i = skipJSONSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return dst, i + 1, nil
	}
	for row := 0; ; row++ {
		if i >= len(b) || b[i] != '[' {
			return dst, i, fmt.Errorf("row %d: expected an array of numbers", row)
		}
		i++
		cols := 0
		for {
			i = skipJSONSpace(b, i)
			end, mant, exp, exact := scanNumber(b, i)
			if end < 0 {
				return dst, i, fmt.Errorf("row %d: expected a number at column %d", row, cols)
			}
			if cols == want {
				return dst, i, fmt.Errorf("row %d has more than %d values, want %d features + target", row, want, want)
			}
			var v float64
			if exact {
				// Clinger's fast path: mant and 10^|exp| are exact float64s,
				// so one correctly rounded operation gives ParseFloat's bits.
				if v = float64(mant); exp < 0 {
					v /= pow10[-exp]
				} else {
					v *= pow10[exp]
				}
				if b[i] == '-' {
					v = -v
				}
			} else {
				var err error
				if v, err = strconv.ParseFloat(string(b[i:end]), 64); err != nil {
					return dst, i, fmt.Errorf("row %d: number at column %d is out of range", row, cols)
				}
			}
			//fmlint:ignore noalloc appends into the pooled batch buffer; growth amortizes to zero steady-state allocations
			dst = append(dst, v)
			cols++
			i = skipJSONSpace(b, end)
			if i < len(b) && b[i] == ',' {
				i++
				continue
			}
			if i < len(b) && b[i] == ']' {
				i++
				break
			}
			return dst, i, fmt.Errorf("row %d: expected ',' or ']' after column %d", row, cols-1)
		}
		if cols != want {
			return dst, i, fmt.Errorf("row %d has %d values, want %d features + target", row, cols, want)
		}
		i = skipJSONSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = skipJSONSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			return dst, i + 1, nil
		}
		return dst, i, fmt.Errorf("expected ',' or ']' after row %d", row)
	}
}

// scanNumber checks RFC 8259's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, at b[i:] and, in the
// same pass, builds the number's magnitude as mant·10^exp. It returns the
// index just past the number, or -1 when b[i:] does not start with one.
// exact reports that mant has at most 15 significant digits and |exp| ≤ 22,
// so that float64 holds both factors exactly; otherwise mant and exp may
// have wrapped or saturated, and only the grammar verdict is meaningful.
//
//fm:noalloc
func scanNumber(b []byte, i int) (end int, mant uint64, exp int, exact bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := 0 // significant digits folded into mant
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' <= 8:
		for ; i < len(b) && isDigit(b[i]); i++ {
			mant = mant*10 + uint64(b[i]-'0')
			digits++
		}
	default:
		return -1, 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			return -1, 0, 0, false
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			exp--
			if mant == 0 && b[i] == '0' {
				continue // a leading zero of the fraction is not significant
			}
			mant = mant*10 + uint64(b[i]-'0')
			digits++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return -1, 0, 0, false
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 { // saturate where strconv does, so both read one decimal
				e = e*10 + int(b[i]-'0')
			}
		}
		if neg {
			e = -e
		}
		exp += e
	}
	return i, mant, exp, digits <= 15 && -22 <= exp && exp <= 22
}

// scanString checks the JSON string at b[i:] and returns the index just
// past its closing quote, or -1 when b[i:] does not start with a valid
// string. plain reports that the string holds only ASCII and no escapes.
//
//fm:noalloc
func scanString(b []byte, i int) (end int, plain bool) {
	if i >= len(b) || b[i] != '"' {
		return -1, false
	}
	plain = true
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, plain
		case c < 0x20:
			return -1, false
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			if i++; i >= len(b) {
				return -1, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i >= len(b) || !isHexDigit(b[i]) {
						return -1, false
					}
				}
			default:
				return -1, false
			}
		}
	}
	return -1, false
}

func isHexDigit(c byte) bool { return isDigit(c) || (c|0x20)-'a' <= 5 }

// skipValue returns the index just past the JSON value at b[i:], or -1
// when b[i:] does not start with a valid one. depth is the nesting level an
// array or object at b[i] would have. It validates a rows value that
// parseRows refused, which a later rows key may still override.
func skipValue(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		end, _ := scanString(b, i)
		return end
	case 't':
		return literalEnd(b, i, "true")
	case 'f':
		return literalEnd(b, i, "false")
	case 'n':
		return literalEnd(b, i, "null")
	case '[', '{':
	default:
		end, _, _, _ := scanNumber(b, i)
		return end
	}
	if depth > maxJSONDepth {
		return -1
	}
	object, closer := b[i] == '{', byte(']')
	if object {
		closer = '}'
	}
	if i = skipJSONSpace(b, i+1); i < len(b) && b[i] == closer {
		return i + 1
	}
	for {
		if object {
			if i, _ = scanString(b, i); i < 0 {
				return -1
			}
			if i = skipJSONSpace(b, i); i >= len(b) || b[i] != ':' {
				return -1
			}
			i = skipJSONSpace(b, i+1)
		}
		if i = skipValue(b, i, depth+1); i < 0 {
			return -1
		}
		i = skipJSONSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = skipJSONSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == closer {
			return i + 1
		}
		return -1
	}
}
