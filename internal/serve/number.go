package serve

import (
	"encoding/binary"
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

// wordSlack is how many bytes the word reader loads at a number: four
// words, room for every number json.Marshal prints without an exponent
// (at most 25 bytes, down to 1e-6) and the ',' or ']' after it.
const wordSlack = 32

// wordFloat reads the number at b[p] and the ',' or ']' right after it,
// end first, after Lemire ("Number Parsing at a Gigabyte per Second",
// arXiv 2101.11408). Four 8-byte loads and byte masks find the number's
// end and its '.' before any digit is converted, so where the next
// number starts follows from the loads alone and does not wait on this
// one's digits. The digits are then checked and converted eight at a
// time into the mantissa and exponent scanNumber keeps, and eiselLemire
// converts them. end is the index past the ',' or ']', and closed says
// it was a ']'.
//
// ok is false, and the caller reads the number with the byte loop, when
// fewer than wordSlack bytes are left at p or fewer than 25 come before
// the ',' or ']', when anything but ',' or ']' follows the number (an
// exponent, a space), when it has a leading zero before more integer
// digits, more than 24 digits or more than 19 after its leading zeros,
// when it is no number at all, and when eiselLemire cannot settle it.
func wordFloat(b []byte, p int) (f float64, end int, closed, ok bool) {
	if len(b)-p < wordSlack {
		return 0, 0, false, false
	}
	w := (*[wordSlack]byte)(b[p:])
	// bit i: w[i] is no digit
	nd := nonDigits(binary.LittleEndian.Uint64(w[0:])) | nonDigits(binary.LittleEndian.Uint64(w[8:]))<<8 |
		nonDigits(binary.LittleEndian.Uint64(w[16:]))<<16 | nonDigits(binary.LittleEndian.Uint64(w[24:]))<<24
	neg := w[0] == '-'
	s := 0 // the first digit's index
	if neg {
		s = 1
	}
	nd &^= uint32(s)
	// dp: the first byte past the sign that is no digit, the '.' or the
	// end; e: the first such byte that is no '.'
	dp := bits.TrailingZeros32(nd) & (wordSlack - 1)
	var dot uint32
	if w[dp] == '.' {
		dot = 1 << dp
	}
	rest := nd &^ dot
	e := bits.TrailingZeros32(rest) & (wordSlack - 1)
	sep := w[e]
	ni, nf := dp-s, max(e-dp-1, 0) // integer and fraction digits
	if rest == 0 || sep != ',' && sep != ']' || ni < 1 || dot != 0 && nf < 1 ||
		w[s] == '0' && ni > 1 || ni+nf > 24 || p+e < 25 {
		return 0, 0, false, false
	}
	// The frame is the 24 bytes before the end, slot 23 the last digit.
	// Its slots below fold, up to the '.', take the byte before their
	// own, which moves the integer digits up a slot over the '.', so its
	// last ni+nf slots hold the digits, the first integer digit first.
	at := p + e - 24
	fold := 0
	if dot != 0 {
		fold = 24 - nf
	}
	keep, digits := &frameSlots[fold], &frameSlots[24-ni-nf]
	r := (*[25]byte)(b[at-1:])
	c0 := eightDigits(frameWord(r[0:], keep[0], digits[0]))
	c1 := eightDigits(frameWord(r[8:], keep[1], digits[1]))
	c2 := eightDigits(frameWord(r[16:], keep[2], digits[2]))
	if c0 >= 1000 {
		return 0, 0, false, false // 20 or more digits after the leading zeros
	}
	f, ok = eiselLemire(c0*1e16+c1*1e8+c2, -nf, neg)
	return f, p + e + 1, sep == ']', ok
}

// frameSlots[n] masks the bytes of the frame's three words whose slot,
// 0 to 23, is n or more.
var frameSlots = func() (t [25][3]uint64) {
	for n := range t {
		for k := range t[n] {
			t[n][k] = ^uint64(0) << (8 * min(max(n-8*k, 0), 8))
		}
	}
	return t
}()

// nonDigits returns a bit per byte of the little-endian word w, the byte
// at offset i to bit i, set where the byte is no ASCII digit. With x the
// byte xor '0', x+0x76 reaches bit 7 of a byte below 0x80 exactly when x
// is 10 or more, and the or with x flags every byte of 0x80 or more,
// which the xor leaves as they are. Only such a byte
// carries into the next one, and it is flagged itself, so the flags are
// exact up to and including the first byte of 0x80 or more, and the
// caller reads no further. One product then gathers the top bits, byte
// i's to bit 56+i, with no two partial products on the same bit.
func nonDigits(w uint64) uint32 {
	x := w ^ 0x3030303030303030 // a digit becomes 0–9
	m := (x + 0x7676767676767676 | x) & 0x8080808080808080
	return uint32((m >> 7) * 0x0102040810204080 >> 56)
}

// frameWord reads a frame word from r[1:9], its slots outside keep
// from r[0:8], one byte earlier, and returns the digit values of its
// slots in digits, zero in the others.
func frameWord(r []byte, keep, digits uint64) uint64 {
	early := binary.LittleEndian.Uint64(r)
	v := early ^ (early^binary.LittleEndian.Uint64(r[1:]))&keep
	return (v ^ 0x3030303030303030) & digits
}

// eightDigits converts the eight digit values in v's bytes, the byte at
// offset 0 the most significant, to their number: pairs, then fours,
// then the eight, with the digit arithmetic of Lemire's paper.
func eightDigits(v uint64) uint64 {
	v = v*10 + v>>8 // bytes 0, 2, 4, 6 hold two-digit numbers
	return ((v&0x000000ff000000ff)*(100+1000000<<32) + (v>>16&0x000000ff000000ff)*(1+10000<<32)) >> 32
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
