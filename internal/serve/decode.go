package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// errTrailingData rejects request bodies with bytes after the JSON
// value. A package-level sentinel (not an ad-hoc fmt.Errorf, per the
// nde-lint errwrap contract) so decode stays classifiable.
var errTrailingData = errors.New("trailing data after JSON body")

// readBody reads the whole request body, capped at MaxBodyBytes, into one
// buffer sized from Content-Length. A body past the cap is 413
// body_too_large whatever its bytes hold — refused unread when its
// declared length is already past the cap — and a failed read is 400
// bad_request.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	limit := s.cfg.MaxBodyBytes
	tooLarge := func() {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", limit), "body_too_large")
	}
	var buf bytes.Buffer
	if n := r.ContentLength; n > limit {
		tooLarge()
		return nil, false
	} else if n > 0 {
		// room for the final Read that reports EOF, so the buffer never grows
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			tooLarge()
		} else {
			writeErr(w, http.StatusBadRequest, "malformed request: "+err.Error(), "bad_request")
		}
		return nil, false
	}
	return buf.Bytes(), true
}

// decode reads the capped JSON request body into v with decodeJSON.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := s.readBody(w, r)
	return ok && decodeJSON(w, body, v)
}

// decodeJSON decodes body into v with encoding/json, every endpoint's
// decoder. Unknown fields and trailing garbage are rejected so typos
// fail loudly instead of being silently ignored; any failure is written
// as 400 bad_request.
func decodeJSON(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		var trailing any
		if dec.Decode(&trailing) != io.EOF {
			err = errTrailingData
		}
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "malformed request: "+err.Error(), "bad_request")
		return false
	}
	return true
}

// decodeRegister is the single-pass, reflection-free parser of the
// canonical subset of RegisterRequest bodies — the shape json.Marshal
// gives an inline-matrix registration — which POST /v1/datasets tries
// before encoding/json. It accepts only:
//
//   - one object whose keys are exactly name, train, valid, test and
//     truth, split objects whose keys are exactly csv, label, x and y,
//     each key at most once;
//   - strings with no backslash, control byte or byte >= 0x7f;
//   - numbers that match the JSON grammar, read in one pass and
//     converted as strconv.ParseFloat/ParseInt convert them, which is how
//     encoding/json converts them;
//   - no null, and nothing after the object but whitespace.
//
// On such a body it fills req exactly as encoding/json would — nil and
// empty slices alike — except that the rows of each x share one backing
// array. On anything else it reports false, leaves req untouched and
// says nothing about why: the caller decodes the same bytes with
// encoding/json, whose answer, error included, is the reference.
func decodeRegister(body []byte, req *RegisterRequest) bool {
	d := regDecoder{b: body}
	var out RegisterRequest
	var seen [5]bool
	d.expect('{')
	for i := 0; d.more(i == 0, '}'); i++ {
		switch string(d.key()) {
		case "name":
			d.once(&seen[0])
			out.Name = d.str()
		case "train":
			d.once(&seen[1])
			out.Train = d.split()
		case "valid":
			d.once(&seen[2])
			out.Valid = d.split()
		case "test":
			d.once(&seen[3])
			out.Test = d.split()
		case "truth":
			d.once(&seen[4])
			out.Truth = d.ints()
		default:
			d.fail()
		}
	}
	d.ws()
	if d.bad || d.p != len(d.b) {
		return false
	}
	*req = out
	return true
}

// regDecoder is decodeRegister's cursor over the body. A failure is
// sticky: fail sets bad and moves the cursor to the end, so every loop
// stops and every later read fails too.
type regDecoder struct {
	b   []byte
	p   int
	bad bool
}

func (d *regDecoder) fail() { d.bad, d.p = true, len(d.b) }

// ws skips JSON whitespace.
func (d *regDecoder) ws() { d.p += skipWS(d.b[d.p:]) }

// expect consumes the byte c after optional whitespace.
func (d *regDecoder) expect(c byte) {
	d.ws()
	if d.p < len(d.b) && d.b[d.p] == c {
		d.p++
		return
	}
	d.fail()
}

// more reports whether another element of the array or object closed
// by end follows, consuming the ',' before it or the closing byte.
// first says no element has been read yet.
func (d *regDecoder) more(first bool, end byte) bool {
	d.ws()
	switch {
	case d.p >= len(d.b):
		d.fail()
		return false
	case d.b[d.p] == end:
		d.p++
		return false
	case first:
		return true
	case d.b[d.p] == ',':
		d.p++
		return true
	}
	d.fail()
	return false
}

// once fails on a key's second appearance in its object.
func (d *regDecoder) once(seen *bool) {
	if *seen {
		d.fail()
	}
	*seen = true
}

// key reads an object member's key and the ':' after it. The bytes alias
// the body.
func (d *regDecoder) key() []byte {
	k := d.strBytes()
	d.expect(':')
	return k
}

// str reads a string of the subset.
func (d *regDecoder) str() string { return string(d.strBytes()) }

// strBytes reads a string of the subset and returns its bytes, which
// alias the body: a backslash, control byte or byte >= 0x7f fails.
func (d *regDecoder) strBytes() []byte {
	d.expect('"')
	start := d.p
	for ; d.p < len(d.b); d.p++ {
		switch c := d.b[d.p]; {
		case c == '"':
			d.p++
			return d.b[start : d.p-1]
		case c < 0x20 || c >= 0x7f || c == '\\':
			d.fail()
			return nil
		}
	}
	d.fail()
	return nil
}

// split reads one MatrixSpec object.
func (d *regDecoder) split() *MatrixSpec {
	spec := &MatrixSpec{}
	var seen [4]bool
	d.expect('{')
	for i := 0; d.more(i == 0, '}'); i++ {
		switch string(d.key()) {
		case "csv":
			d.once(&seen[0])
			spec.CSV = d.str()
		case "label":
			d.once(&seen[1])
			spec.Label = d.str()
		case "x":
			d.once(&seen[2])
			spec.X = d.matrix()
		case "y":
			d.once(&seen[3])
			spec.Y = d.ints()
		default:
			d.fail()
		}
	}
	return spec
}

// matrix reads an array of float rows. Every row is a window of one
// backing array, sized before parsing by counting the commas ahead, and
// reaches to its end (no capacity limit), so registration can tell by
// element address that the rows lie end to end and adopt the array as
// the matrix's data (rowsArray).
func (d *regDecoder) matrix() [][]float64 {
	d.expect('[')
	nums, rows := d.countRows()
	flat := make([]float64, 0, nums)
	ends := make([]int, 0, rows)
	for i := 0; d.more(i == 0, ']'); i++ {
		d.expect('[')
		flat = d.row(flat)
		ends = append(ends, len(flat))
	}
	if d.bad {
		return nil
	}
	x := make([][]float64, len(ends))
	start := 0
	for i, end := range ends {
		x[i] = flat[start:end]
		start = end
	}
	return x
}

// row reads the numbers of one row, from just inside its '[' through its
// ']', onto flat. wordFloat reads each number with the ',' or ']' after
// it when it can; any other number takes the byte loop, float then more.
// The cursor stays in a local between word reads, so the next number's
// loads wait only on this one's end.
func (d *regDecoder) row(flat []float64) []float64 {
	if !d.more(true, ']') {
		return flat
	}
	b, p := d.b, d.p
	for {
		f, end, closed, ok := wordFloat(b, p)
		if !ok {
			d.p = p
			f = d.float()
			closed = !d.more(false, ']')
			end = d.p
		}
		flat = append(flat, f)
		p = end
		if closed {
			d.p = p
			return flat
		}
	}
}

// countRows looks ahead, from just inside the '[' of an array of
// number rows, and returns an upper bound on its numbers and its row
// count without moving the cursor. In the subset a row holds only
// numbers, so the first ']' closes it, and a ',' after that ']' starts
// the next row. Outside the subset the counts are only a capacity hint.
func (d *regDecoder) countRows() (nums, rows int) {
	b := d.b[d.p:]
	if i := skipWS(b); i == len(b) || b[i] == ']' {
		return 0, 0
	}
	commas := 0
	for {
		i := bytes.IndexByte(b, ']')
		if i < 0 {
			return commas + 1, rows
		}
		commas += bytes.Count(b[:i], []byte{','})
		rows++
		b = b[i+1:]
		if j := skipWS(b); j == len(b) || b[j] != ',' {
			// each number but the last is followed by a ','
			return commas + 1, rows
		}
	}
}

// ints reads an array of ints, sized before parsing by counting the
// commas up to its ']'.
func (d *regDecoder) ints() []int {
	d.expect('[')
	n := 0
	if i := bytes.IndexByte(d.b[d.p:], ']'); i >= 0 {
		n = bytes.Count(d.b[d.p:d.p+i], []byte{','}) + 1
	}
	out := make([]int, 0, n)
	for i := 0; d.more(i == 0, ']'); i++ {
		out = append(out, d.label())
	}
	return out
}

// skipWS returns the index of the first non-whitespace byte of b, or
// len(b).
func skipWS(b []byte) int {
	for i, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return i
		}
	}
	return len(b)
}
