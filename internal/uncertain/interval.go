// Package uncertain implements the tutorial's §2.3 — learning from
// uncertain and incomplete data. Instead of imputing a single "best guess"
// for missing or unreliable values, the package represents each uncertain
// cell as an interval and reasons over the *set of possible worlds* it
// induces:
//
//   - Zorro-style analysis (Zhu et al., NeurIPS 2024): propagate the
//     uncertainty of training cells through model training, producing
//     prediction ranges and worst-case loss estimates, via sampled possible
//     worlds plus a sound interval over-approximation;
//   - CPClean-style certain predictions for k-nearest-neighbor models over
//     incomplete data (Karlaš et al., VLDB 2021), with a greedy
//     minimal-repair cleaning strategy; and
//   - exhaustive possible-world enumeration for small discrete uncertainty
//     (the dataset-multiplicity view of Meyer et al.).
package uncertain

import (
	"fmt"
	"math"
)

// Interval is a closed real interval [Lo, Hi]. A point value x is the
// degenerate interval [x, x].
type Interval struct {
	Lo, Hi float64
}

// Point returns the degenerate interval [x, x].
func Point(x float64) Interval { return Interval{Lo: x, Hi: x} }

// NewInterval returns [lo, hi]; it panics when lo > hi.
func NewInterval(lo, hi float64) Interval {
	if lo > hi {
		panic(fmt.Sprintf("uncertain: invalid interval [%v, %v]", lo, hi))
	}
	return Interval{Lo: lo, Hi: hi}
}

// IsPoint reports whether the interval is degenerate.
func (a Interval) IsPoint() bool { return a.Lo == a.Hi }

// Width returns Hi − Lo.
func (a Interval) Width() float64 { return a.Hi - a.Lo }

// Center returns the midpoint.
func (a Interval) Center() float64 { return (a.Lo + a.Hi) / 2 }

// Sub returns a − b.
func (a Interval) Sub(b Interval) Interval { return Interval{a.Lo - b.Hi, a.Hi - b.Lo} }

// Neg returns −a.
func (a Interval) Neg() Interval { return Interval{-a.Hi, -a.Lo} }

// Union returns the smallest interval containing both a and b.
func (a Interval) Union(b Interval) Interval {
	return Interval{math.Min(a.Lo, b.Lo), math.Max(a.Hi, b.Hi)}
}

// Abs returns {|x| : x∈a}.
func (a Interval) Abs() Interval {
	if a.Lo >= 0 {
		return a
	}
	if a.Hi <= 0 {
		return a.Neg()
	}
	return Interval{0, math.Max(-a.Lo, a.Hi)}
}

// String renders the interval; points render as plain numbers.
func (a Interval) String() string {
	if a.IsPoint() {
		return fmt.Sprintf("%g", a.Lo)
	}
	return fmt.Sprintf("[%g, %g]", a.Lo, a.Hi)
}
