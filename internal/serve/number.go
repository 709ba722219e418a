package serve

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// decNumber is a JSON number literal as scanNumber reads it: a decimal
// mantissa of at most 19 significant digits and a power of ten. When
// trunc is false its value is man × 10^exp, negated when neg; when trunc
// is true a nonzero digit after the first 19 was dropped and the value
// lies strictly between man × 10^exp and (man+1) × 10^exp.
type decNumber struct {
	man   uint64
	exp   int
	neg   bool
	trunc bool
	// frac reports a fraction or an exponent in the literal
	frac bool
	// start is the index of the literal's first byte in the body
	start int
}

// scanNumber reads the JSON number at the cursor in one pass, checking it
// against the JSON number grammar
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? as it accumulates the
// mantissa. What follows the number is left to the caller, so "01" reads
// as "0" and then fails there.
func (d *regDecoder) scanNumber() decNumber {
	d.ws()
	b, p := d.b, d.p
	start := p
	var man uint64
	nd, exp := 0, 0 // nd counts the digits in man, nonzero exactly when man is
	var neg, trunc, frac, dropped bool
	if p < len(b) && b[p] == '-' {
		neg = true
		p++
	}
	switch {
	case p < len(b) && b[p] == '0':
		p++
	case p < len(b) && b[p]-'1' < 9:
		p, man, nd = keepDigits(b, p, man, nd)
		q := p
		p, trunc = dropDigits(b, p)
		exp = p - q
	default:
		d.fail()
		return decNumber{}
	}
	if p < len(b) && b[p] == '.' {
		p++
		first := p
		if nd == 0 {
			for p < len(b) && b[p] == '0' {
				p++ // a zero ahead of the first significant digit
			}
		}
		p, man, nd = keepDigits(b, p, man, nd)
		exp -= p - first
		p, dropped = dropDigits(b, p)
		if p == first {
			d.fail()
			return decNumber{}
		}
		trunc = trunc || dropped
		frac = true
	}
	if p < len(b) && b[p]|0x20 == 'e' {
		p++
		eneg := p < len(b) && b[p] == '-'
		if p < len(b) && (b[p] == '+' || b[p] == '-') {
			p++
		}
		first, e := p, 0
		for ; p < len(b) && b[p]-'0' < 10; p++ {
			// past 10000 the value is 0 or infinite whatever the
			// mantissa, and only the fallback sees exponents that large
			if e < 10000 {
				e = e*10 + int(b[p]-'0')
			}
		}
		if p == first {
			d.fail()
			return decNumber{}
		}
		if eneg {
			e = -e
		}
		exp += e
		frac = true
	}
	d.p = p
	return decNumber{man: man, exp: exp, neg: neg, trunc: trunc, frac: frac, start: start}
}

// keepDigits appends the decimal digits from b[p] on to the mantissa man
// of nd digits while it holds fewer than 19, and returns the index past
// the last digit kept with the new mantissa and count.
func keepDigits(b []byte, p int, man uint64, nd int) (int, uint64, int) {
	for ; nd < 19 && p < len(b) && b[p]-'0' < 10; p++ {
		man = man*10 + uint64(b[p]-'0')
		nd++
	}
	return p, man, nd
}

// dropDigits skips the run of decimal digits from b[p] on and reports
// whether any of them is nonzero.
func dropDigits(b []byte, p int) (int, bool) {
	nonzero := false
	for ; p < len(b) && b[p]-'0' < 10; p++ {
		nonzero = nonzero || b[p] != '0'
	}
	return p, nonzero
}

// float reads one number as encoding/json converts it into a float64:
// by Eisel–Lemire when that is exact, otherwise by strconv.ParseFloat on
// the same bytes, which settles halfway cases, subnormals, overflow and
// exponents outside the table.
func (d *regDecoder) float() float64 {
	n := d.scanNumber()
	if d.bad {
		return 0
	}
	if f, ok := eiselLemire(n.man, n.exp, n.neg); ok {
		if !n.trunc {
			return f
		}
		// a dropped digit leaves the value below (man+1) × 10^exp: if
		// that bound rounds to the same float, so does the value
		if up, ok := eiselLemire(n.man+1, n.exp, n.neg); ok && up == f {
			return f
		}
	}
	v, err := strconv.ParseFloat(string(d.b[n.start:d.p]), 64)
	if err != nil {
		d.fail()
	}
	return v
}

// label reads one number as encoding/json converts it into an int: a
// fraction, an exponent or a value outside int fails.
func (d *regDecoder) label() int {
	n := d.scanNumber()
	// an integer literal keeps every digit in man unless exp counts
	// dropped ones, and then it is at least 10^19
	limit := uint64(math.MaxInt)
	if n.neg {
		limit++
	}
	if n.frac || n.exp != 0 || n.man > limit {
		d.fail()
		return 0
	}
	v := int(n.man)
	if n.neg {
		v = -v
	}
	return v
}

// The rows of pow10Table cover 10^pow10Min … 10^pow10Max, the range in
// which Eisel–Lemire can reach a float64 from a 19-digit mantissa.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10Table holds, for each power of ten 10^e, the 128 most significant
// bits of its binary expansion, rounded down, as {low, high} words: the
// integer T in [2^127, 2^128) with T × 2^s ≤ 10^e < (T+1) × 2^s for
// s = ⌊e·log2(10)⌋ − 127.
type pow10Table [pow10Max - pow10Min + 1][2]uint64

// pow10 is filled once, at start-up, in well under a millisecond.
var pow10 pow10Table

func init() { pow10.fill() }

// fill computes every row from math/big.
func (t *pow10Table) fill() {
	ten, one := big.NewInt(10), big.NewInt(1)
	p, q, hi := big.NewInt(1), new(big.Int), new(big.Int)
	for e := 0; e <= pow10Max; e++ {
		if l := p.BitLen(); l > 128 {
			q.Rsh(p, uint(l-128))
		} else {
			q.Lsh(p, uint(128-l))
		}
		t[e-pow10Min] = [2]uint64{q.Uint64(), hi.Rsh(q, 64).Uint64()}
		p.Mul(p, ten)
	}
	// 10^-e is 2^-(127+l) × 2^(127+l)/10^e, where l is the bit length of
	// 10^e; 10^e is no power of two, so the quotient lies in (2^127, 2^128)
	p.Set(ten)
	for e := 1; e <= -pow10Min; e++ {
		q.Lsh(one, uint(127+p.BitLen()))
		q.Div(q, p)
		t[-e-pow10Min] = [2]uint64{q.Uint64(), hi.Rsh(q, 64).Uint64()}
		p.Mul(p, ten)
	}
}

// eiselLemire converts man × 10^exp10, negated when neg, to the nearest
// float64 (ties to even) with the Eisel–Lemire algorithm: one 64×128-bit
// product against the truncated power of ten. It reports false when that
// product cannot settle the rounding — exactly halfway, or too close to a
// carry — and when the result would be subnormal or infinite or exp10
// lies outside the table.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	row := &pow10[exp10-pow10Min]
	// normalize man to a set top bit; exp2 is the biased binary exponent
	// of the product's top bit, 217706/2^16 standing in for log2(10)
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	hi, lo := bits.Mul64(man, row[1])
	// the high word of the power alone is short by less than man in lo;
	// when a carry out of lo could reach the bits that decide rounding,
	// add in the product with the low word of the power
	if hi&0x1ff == 0x1ff && lo+man < man {
		yhi, ylo := bits.Mul64(man, row[0])
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1ff == 0x1ff && mlo+1 == 0 && ylo+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}
	// keep 54 bits, one more than the float's mantissa, for rounding
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		return 0, false // halfway between two floats
	}
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7ff-1 {
		return 0, false // subnormal, zero or infinite
	}
	f := exp2<<52 | m&(1<<52-1)
	if neg {
		f |= 1 << 63
	}
	return math.Float64frombits(f), true
}
