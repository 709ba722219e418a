package serve

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"nde/internal/linalg"
)

// number is the oracle for scanNumber's grammar: the scanner decodeRegister
// used before numbers were read in one pass. It returns the literal of the
// JSON number at the cursor, checked against the JSON number grammar
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, and leaves what follows it
// to the caller.
func (d *regDecoder) number() []byte {
	d.ws()
	b, start := d.b, d.p
	p := start
	if p < len(b) && b[p] == '-' {
		p++
	}
	if p < len(b) && b[p] == '0' {
		p++
	} else if q := digitsEnd(b, p); q > p {
		p = q
	} else {
		d.fail()
		return nil
	}
	if p < len(b) && b[p] == '.' {
		q := digitsEnd(b, p+1)
		if q == p+1 {
			d.fail()
			return nil
		}
		p = q
	}
	if p < len(b) && (b[p] == 'e' || b[p] == 'E') {
		p++
		if p < len(b) && (b[p] == '+' || b[p] == '-') {
			p++
		}
		q := digitsEnd(b, p)
		if q == p {
			d.fail()
			return nil
		}
		p = q
	}
	d.p = p
	return b[start:p]
}

// digitsEnd returns the index just past the run of decimal digits that
// starts at b[p].
func digitsEnd(b []byte, p int) int {
	for p < len(b) && b[p]-'0' < 10 {
		p++
	}
	return p
}

// oracleFloat is the oracle for float: the literal through
// strconv.ParseFloat, the call encoding/json makes.
func (d *regDecoder) oracleFloat() float64 {
	v, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.fail()
	}
	return v
}

// oracleLabel is the oracle for label: the literal through
// strconv.ParseInt.
func (d *regDecoder) oracleLabel() int {
	v, err := strconv.ParseInt(string(d.number()), 10, strconv.IntSize)
	if err != nil {
		d.fail()
	}
	return int(v)
}

// checkNumber fails unless the scanner and the oracle, each reading lit
// from its start as a float and as a label, agree on failure, on where
// the number ends and on the value, floats to the bit.
func checkNumber(t *testing.T, lit []byte) {
	t.Helper()
	fast, ref := regDecoder{b: lit}, regDecoder{b: lit}
	f, g := fast.float(), ref.oracleFloat()
	if fast.bad != ref.bad || fast.p != ref.p || !fast.bad && math.Float64bits(f) != math.Float64bits(g) {
		t.Fatalf("float %q: scanner (%v, bad %v, end %d), oracle (%v, bad %v, end %d)",
			lit, f, fast.bad, fast.p, g, ref.bad, ref.p)
	}
	fast, ref = regDecoder{b: lit}, regDecoder{b: lit}
	i, j := fast.label(), ref.oracleLabel()
	if fast.bad != ref.bad || fast.p != ref.p || !fast.bad && i != j {
		t.Fatalf("label %q: scanner (%d, bad %v, end %d), oracle (%d, bad %v, end %d)",
			lit, i, fast.bad, fast.p, j, ref.bad, ref.p)
	}
}

// oracleRow is the oracle for row: the byte loop, with every number
// read by oracleFloat.
func (d *regDecoder) oracleRow() []float64 {
	var out []float64
	for j := 0; d.more(j == 0, ']'); j++ {
		out = append(out, d.oracleFloat())
	}
	return out
}

// checkRow fails unless row and oracleRow, each reading body from p,
// just inside a row's '[', agree on failure, on where the row ends and
// on every number, to the bit.
func checkRow(t *testing.T, body []byte, p int) {
	t.Helper()
	fast, ref := regDecoder{b: body, p: p}, regDecoder{b: body, p: p}
	got, want := fast.row(nil), ref.oracleRow()
	asRow := func(v []float64) *linalg.Matrix { return &linalg.Matrix{Rows: 1, Cols: len(v), Data: v} }
	if fast.bad != ref.bad || fast.p != ref.p || !fast.bad && !linalg.SameBits(asRow(got), asRow(want)) {
		t.Fatalf("row %q: reader (%v, bad %v, end %d), oracle (%v, bad %v, end %d)",
			body[p:], got, fast.bad, fast.p, want, ref.bad, ref.p)
	}
}

// rowPrefix and rowPadding put the numbers of a row between them past
// the 25 bytes the word reader needs before a number's end, and
// wordSlack bytes before the body's end.
var (
	rowPrefix  = strings.Repeat(" ", 25) + "["
	rowPadding = bytes.Repeat([]byte{' '}, wordSlack)
)

// checkNumberInRow reads lit as the first number of a row — lit, then
// sep (',' or ']'), then a second number if sep is ',', then wordSlack
// bytes of padding — with row and with the oracle: the word reader gets
// to read it, and must agree with the oracle as checkRow checks.
func checkNumberInRow(t *testing.T, lit []byte, sep byte) {
	t.Helper()
	body := append([]byte(rowPrefix), lit...)
	body = append(body, sep)
	if sep == ',' {
		body = append(body, "7]"...)
	}
	body = append(body, rowPadding...)
	checkRow(t, body, len(rowPrefix))
}

// hardNumbers are literals at the edges of the fast path: signed zeros,
// the smallest subnormal and normal, the largest finite float and the
// first literal past it, underflow and overflow, a halfway integer,
// mantissas longer than 19 digits, and exponents that wrap a uint64.
var hardNumbers = []string{
	"-0", "0", "0e5", "-0.0e-999", "0.000", "1", "-1",
	"4.9406564584124654e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623159e308", "1e400", "-1e400", "1e-400",
	"9007199254740993", "9007199254740992", "-9007199254740993",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"9999999999999999999", "10000000000000000000", "12345678901234567890123",
	"0.12345678901234567890123", "1.00000000000000000000001",
	"9007199254740993.0000000000000000001", "1e99999999999999999999", "1e-99999999999999999999",
	"1e18446744073709551616", "1e-18446744073709551617",
	"1.0", "1e2", "1E+2", "-1e-2", "01", "-", "1.", ".5", "+1", "1e", "1e+", "-x", "", " 7", "\t-0.5e1,",
}

// Differential fuzzer: on any bytes the scanner and the oracle agree, as
// checkNumber checks them, and so do the row reader and the oracle's
// byte loop on a row that starts with them.
func FuzzRegisterNumber(f *testing.F) {
	for _, lit := range hardNumbers {
		f.Add([]byte(lit))
	}
	f.Fuzz(func(t *testing.T, lit []byte) {
		checkNumber(t, lit)
		checkNumberInRow(t, lit, ',')
		checkNumberInRow(t, lit, ']')
	})
}

// Some of the hard cases, each with the float it must read as (the
// fuzzer's seeds hold them to the oracle): the refused ones are refused,
// and 1e-400 underflows to zero.
func TestRegisterNumberHardCases(t *testing.T) {
	for lit, want := range map[string]float64{
		"-0":                      math.Copysign(0, -1),
		"0e5":                     0,
		"4.9406564584124654e-324": math.SmallestNonzeroFloat64,
		"2.2250738585072011e-308": math.Float64frombits(0x000fffffffffffff),
		"1.7976931348623157e308":  math.MaxFloat64,
		"1e-400":                  0,
		"9007199254740993":        9007199254740992,
		"12345678901234567890123": 1.2345678901234568e22,
	} {
		d := regDecoder{b: []byte(lit)}
		if v := d.float(); d.bad || math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("%s = %v (bad %v), want %v", lit, v, d.bad, want)
		}
	}
	for _, lit := range []string{"1.7976931348623159e308", "1e400"} {
		d := regDecoder{b: []byte(lit)}
		if d.float(); !d.bad {
			t.Errorf("%s accepted", lit)
		}
	}
}

// A deterministic sweep of over a million literals: random float64 bit
// patterns printed in 'g', 'e' and 'f' form at random precisions, and
// random strings of 1–30 digits with a random point and an exponent
// within ±350, and shortest 'f' forms of floats from 2^-24 to 2^70, the
// form json.Marshal prints between 1e-6 and 1e21. Each is read on its
// own and as the first number of a row, where the word reader reads it,
// followed by ',' or ']' in turn.
func TestRegisterNumberSweep(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	formats := []byte{'g', 'e', 'f'}
	var buf []byte
	for i := 0; i < 600_000; i++ {
		v, format := math.Float64frombits(r.Uint64()), formats[r.Intn(2)]
		if r.Intn(2) == 0 {
			// 'f' only within 2^±200: a float near the range ends prints
			// hundreds of digits, which strconv reads slowly
			v = math.Ldexp(math.Float64frombits(r.Uint64()&(1<<52-1)|1023<<52), r.Intn(400)-200)
			format = formats[r.Intn(len(formats))]
		}
		buf = strconv.AppendFloat(buf[:0], v, format, r.Intn(26)-1, 64)
		checkNumber(t, buf)
		checkNumberInRow(t, buf, ",]"[i%2])
	}
	var sb strings.Builder
	for i := 0; i < 500_000; i++ {
		sb.Reset()
		if r.Intn(2) == 0 {
			sb.WriteByte('-')
		}
		n := 1 + r.Intn(30)
		point := r.Intn(n + 1)
		for j := 0; j < n; j++ {
			if j == point && j > 0 {
				sb.WriteByte('.')
			}
			c := byte('0' + r.Intn(10))
			if j == 0 && n > 1 && point != 1 {
				c = byte('1' + r.Intn(9)) // no leading zero before more integer digits
			}
			sb.WriteByte(c)
		}
		if r.Intn(4) != 0 {
			sb.WriteString("e")
			sb.WriteString(strconv.Itoa(r.Intn(701) - 350))
		}
		checkNumber(t, []byte(sb.String()))
		checkNumberInRow(t, []byte(sb.String()), ",]"[i%2])
	}
	for i := 0; i < 200_000; i++ {
		v := math.Ldexp(math.Float64frombits(r.Uint64()&(1<<63|1<<52-1)|1023<<52), r.Intn(95)-24)
		buf = strconv.AppendFloat(buf[:0], v, 'f', -1, 64)
		checkNumber(t, buf)
		checkNumberInRow(t, buf, ",]"[i%2])
	}
}

// Each row of the powers-of-ten table is the floor of its power: T with
// its top bit set and T × 2^s ≤ 10^e < (T+1) × 2^s for the s the
// conversion assumes, checked by multiplying back with math/big.
func TestPow10Table(t *testing.T) {
	if pow10[-pow10Min] != [2]uint64{0, 1 << 63} {
		t.Fatalf("1e0 row = %#x, want {0, 1<<63}", pow10[-pow10Min])
	}
	ten := big.NewInt(10)
	for e := pow10Min; e <= pow10Max; e++ {
		row := pow10[e-pow10Min]
		if row[1]>>63 != 1 {
			t.Fatalf("1e%d row %#x: top bit clear", e, row)
		}
		lo := new(big.Int).SetUint64(row[0])
		tt := new(big.Int).Lsh(new(big.Int).SetUint64(row[1]), 64)
		tt.Or(tt, lo)
		next := new(big.Int).Add(tt, big.NewInt(1))
		// compare T·2^s with 10^e as num/den with both sides integers
		s := 217706*e>>16 - 127
		num := new(big.Int).Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		den := big.NewInt(1)
		if e < 0 {
			num, den = den, num
		}
		if s >= 0 {
			den.Lsh(den, uint(s))
		} else {
			num.Lsh(num, uint(-s))
		}
		// T ≤ num/den < T+1
		if new(big.Int).Mul(tt, den).Cmp(num) > 0 || new(big.Int).Mul(next, den).Cmp(num) <= 0 {
			t.Fatalf("1e%d row %#x is not the floor of 10^%d × 2^%d", e, row, e, -s)
		}
	}
}

// rowBodyHead runs up to just inside the '[' of rowBody's second row.
const rowBodyHead = `{"name":"padded","train":{"x":[[0.5],[`

// rowBody is a canonical registration body whose train split's second
// row holds row, padded so that every number of row has the bytes the
// word reader needs around it.
func rowBody(row []byte) []byte {
	body := append([]byte(rowBodyHead), row...)
	body = append(body, `]],"y":[0,1]}}`...)
	return append(body, rowPadding...)
}

// Differential fuzzer of the row loop: arbitrary bytes as one row's
// contents inside a padded canonical body. Whenever decodeRegister
// accepts the body, encoding/json accepts it too and yields the same
// request, and the row reader agrees with the oracle's byte loop on the
// row, as checkRow checks.
func FuzzRegisterRow(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	row := mustMarshal(f, mixtureSplit(f, r, 1, 32).Row(0))
	f.Add(row[1 : len(row)-1])
	for _, s := range []string{
		"", "1e5,2", "1 ,2", "12345678901234567890,1", "01,1", "1.,2", "-,1", "1,,2", " 1.5 , -2.25 ",
		"0.000001234567890123456,1", "-0.0,0", "1.5,\"x\"", "1.5,null", "[1.5]", "1.5\xff,2", "9007199254740993.5,1",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, row []byte) {
		body := rowBody(row)
		var fast RegisterRequest
		if decodeRegister(body, &fast) {
			checkAgainstJSON(t, body, &fast)
		}
		checkRow(t, body, len(rowBodyHead))
	})
}

// The word reader takes every number of the x matrices of a json.Marshal
// body shaped as serve-cold's — a Gaussian mixture, 4000 × 32 train and
// 100 × 32 valid rows — with the oracle's bits and end, so the
// differential tests exercise it. It refuses the literals of refused,
// each of which the row then reads with the byte loop, as the oracle
// does.
func TestWordFloat(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	train, valid := mixtureSplit(t, r, 4000, 32), mixtureSplit(t, r, 100, 32)
	body := mustMarshal(t, RegisterRequest{Train: inlineSpec(train), Valid: inlineSpec(valid)})
	read := 0
	for _, key := range []string{`"train":{"x":[`, `"valid":{"x":[`} {
		d := regDecoder{b: body, p: bytes.Index(body, []byte(key)) + len(key)}
		for i := 0; d.more(i == 0, ']'); i++ {
			d.expect('[')
			for j := 0; d.more(j == 0, ']'); j++ {
				at := d.p
				f, end, closed, ok := wordFloat(body, at)
				want := d.oracleFloat()
				if !ok || d.bad || math.Float64bits(f) != math.Float64bits(want) ||
					end != d.p+1 || closed != (body[d.p] == ']') {
					t.Fatalf("%q: word reader (%v, end %d, closed %v, ok %v), oracle (%v, end %d)",
						body[at:d.p+1], f, end, closed, ok, want, d.p+1)
				}
				read++
			}
		}
	}
	if want := (4000 + 100) * 32; read != want {
		t.Fatalf("read %d numbers, want %d", read, want)
	}

	refused := []string{"1e5,", "1 ,", "12345678901234567890,", "01,", "1.,", "-,"}
	for _, lit := range refused {
		b := append([]byte(rowPrefix+lit+"7]"), rowPadding...)
		if _, _, _, ok := wordFloat(b, len(rowPrefix)); ok {
			t.Errorf("word reader took %q", lit)
		}
		checkRow(t, b, len(rowPrefix))
	}
	// a number in the body's last wordSlack bytes
	b := []byte(rowPrefix + "1.5,2.25]" + strings.Repeat(" ", wordSlack-10))
	if _, _, _, ok := wordFloat(b, len(rowPrefix)); ok {
		t.Errorf("word reader took a number %d bytes before the body's end", len(b)-len(rowPrefix))
	}
	checkRow(t, b, len(rowPrefix))
}
