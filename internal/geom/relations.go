package geom

import "math"

// Spatial relations used by 2P grammar productions (Section 4.1 of the
// paper). The paper notes that "adjacency is implied in all spatial
// relations": Left(a, b) does not merely mean a is somewhere to the left of
// b, but that a is the left neighbour of b within a condition pattern. The
// thresholds below bound how far apart two constructs may sit while still
// being considered adjacent; they are expressed in pixels of the layout
// engine's coordinate space and collected in a Thresholds value so callers
// (and tests) can tighten or loosen them.

// Thresholds bounds the gaps and tolerances for the adjacency-implied
// spatial relations.
type Thresholds struct {
	// MaxHGap is the largest horizontal gap, in pixels, at which two
	// vertically-overlapping constructs still count as left/right adjacent.
	MaxHGap float64
	// MaxVGap is the largest vertical gap at which two horizontally
	// overlapping or aligned constructs still count as above/below adjacent.
	MaxVGap float64
	// AlignTol is the tolerance for edge and center alignment tests.
	AlignTol float64
	// MinOverlapFrac is the minimum fraction of the smaller construct's
	// extent that must overlap on the perpendicular axis for the adjacency
	// relations to hold (e.g. vertical overlap for Left).
	MinOverlapFrac float64
}

// DefaultThresholds are calibrated against the layout engine's font metrics:
// one line of text is ~18px tall, a typical form cell gutter is 5-30px. The
// horizontal gap allows for table layouts where a wide label column pushes
// fields away from short labels ("From" vs "Number of passengers" in one
// column).
var DefaultThresholds = Thresholds{
	MaxHGap:        170,
	MaxVGap:        42,
	AlignTol:       6,
	MinOverlapFrac: 0.4,
}

// perpOverlapOK reports whether overlap covers at least MinOverlapFrac of
// the smaller of the two extents a and b.
func (t Thresholds) perpOverlapOK(overlap, a, b float64) bool {
	small := a
	if b < small {
		small = b
	}
	if small <= 0 {
		return overlap >= 0
	}
	return overlap >= t.MinOverlapFrac*small
}

// Left reports whether a is the left-adjacent neighbour of b: a ends before
// b begins, the horizontal gap is within MaxHGap, and the two overlap
// vertically enough to sit on the same visual row.
func (t Thresholds) Left(a, b Rect) bool {
	if a.X2 > b.X1+t.AlignTol {
		return false
	}
	if b.X1-a.X2 > t.MaxHGap {
		return false
	}
	return t.perpOverlapOK(a.VOverlap(b), a.Height(), b.Height())
}

// Right reports whether a is the right-adjacent neighbour of b.
func (t Thresholds) Right(a, b Rect) bool { return t.Left(b, a) }

// Above reports whether a is the above-adjacent neighbour of b: a ends
// before b begins vertically, the gap is within MaxVGap, and the two either
// overlap horizontally or share a left edge within tolerance (labels are
// often left-aligned above their fields without horizontal overlap of the
// text extent and a wide field).
func (t Thresholds) Above(a, b Rect) bool {
	if a.Y2 > b.Y1+t.AlignTol {
		return false
	}
	if b.Y1-a.Y2 > t.MaxVGap {
		return false
	}
	if a.HOverlap(b) > 0 {
		return true
	}
	return abs(a.X1-b.X1) <= t.AlignTol
}

// Below reports whether a is the below-adjacent neighbour of b.
func (t Thresholds) Below(a, b Rect) bool { return t.Above(b, a) }

// AlignedLeft reports whether a and b share a left edge within tolerance.
func (t Thresholds) AlignedLeft(a, b Rect) bool { return abs(a.X1-b.X1) <= t.AlignTol }

// AlignedRight reports whether a and b share a right edge within tolerance.
func (t Thresholds) AlignedRight(a, b Rect) bool { return abs(a.X2-b.X2) <= t.AlignTol }

// AlignedTop reports whether a and b share a top edge within tolerance.
func (t Thresholds) AlignedTop(a, b Rect) bool { return abs(a.Y1-b.Y1) <= t.AlignTol }

// AlignedBottom reports whether a and b share a bottom edge within tolerance.
func (t Thresholds) AlignedBottom(a, b Rect) bool { return abs(a.Y2-b.Y2) <= t.AlignTol }

// AlignedMiddle reports whether the vertical centers of a and b align within
// tolerance — the usual relation between a label and the input on its row.
func (t Thresholds) AlignedMiddle(a, b Rect) bool { return abs(a.CenterY()-b.CenterY()) <= t.AlignTol }

// SameRow reports whether a and b overlap vertically enough to be read as
// one visual row, regardless of horizontal order.
func (t Thresholds) SameRow(a, b Rect) bool {
	return t.perpOverlapOK(a.VOverlap(b), a.Height(), b.Height())
}

// SameColumn reports whether a and b overlap horizontally enough to be read
// as one visual column.
func (t Thresholds) SameColumn(a, b Rect) bool {
	return t.perpOverlapOK(a.HOverlap(b), a.Width(), b.Width())
}

// Near reports whether the closest distance between a and b is within the
// given radius — the proximity predicate used by the baseline extractor and
// by low-precedence catch-all productions.
func Near(a, b Rect, radius float64) bool { return a.Distance(b) <= radius }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Axis is the direction of an adjacency relation: Horizontal for Left and
// Right, Vertical for Above and Below.
type Axis uint8

const (
	// Horizontal is the x axis (Left, Right).
	Horizontal Axis = iota
	// Vertical is the y axis (Above, Below).
	Vertical
)

// Lead returns r's leading edge along ax: X1 or Y1.
func (r Rect) Lead(ax Axis) float64 {
	if ax == Vertical {
		return r.Y1
	}
	return r.X1
}

// Trail returns r's trailing edge along ax: X2 or Y2.
func (r Rect) Trail(ax Axis) float64 {
	if ax == Vertical {
		return r.Y2
	}
	return r.X2
}

// Window is a closed interval [Lo, Hi] of one rectangle coordinate: the
// range a coordinate must lie in for an adjacency relation to possibly
// hold. Windows are conservative prefilters — a coordinate inside the
// window may still fail the relation, one outside never passes it.
type Window struct{ Lo, Hi float64 }

// unbounded is the window that excludes nothing.
var unbounded = Window{Lo: math.Inf(-1), Hi: math.Inf(1)}

// Contains reports whether v lies in the window. NaN is never excluded:
// the relations' comparisons are all false on NaN, so a NaN coordinate can
// slip past every gap test.
func (w Window) Contains(v float64) bool { return !(v < w.Lo || v > w.Hi) }

// windowPad is the relative widening applied to every window, so float
// rounding in the relation's own arithmetic (b.X1 + AlignTol, b.X1 - a.X2)
// can never put a passing coordinate just outside the window. Rounding
// errors are ~1e-16 relative; the pad is seven orders of magnitude wider.
const windowPad = 1e-9

// maxGap returns the adjacency gap bound along ax.
func (t Thresholds) maxGap(ax Axis) float64 {
	if ax == Vertical {
		return t.MaxVGap
	}
	return t.MaxHGap
}

// AfterWindow returns the window of b.Lead(ax) outside which Left(a, b)
// (Horizontal) or Above(a, b) (Vertical) cannot hold, given a. Both
// relations require the gap b.Lead - a.Trail to lie in
// [-AlignTol, MaxHGap or MaxVGap].
func (t Thresholds) AfterWindow(ax Axis, a Rect) Window {
	return window(a.Trail(ax), -t.AlignTol, t.maxGap(ax))
}

// BeforeWindow returns the window of a.Trail(ax) outside which Left(a, b)
// (Horizontal) or Above(a, b) (Vertical) cannot hold, given b.
func (t Thresholds) BeforeWindow(ax Axis, b Rect) Window {
	return window(b.Lead(ax), -t.maxGap(ax), t.AlignTol)
}

// window returns [anchor+lo, anchor+hi] widened by windowPad, or unbounded
// when non-finite inputs make a bound NaN.
func window(anchor, lo, hi float64) Window {
	pad := windowPad * (1 + abs(anchor) + abs(lo) + abs(hi))
	w := Window{Lo: anchor + lo - pad, Hi: anchor + hi + pad}
	if math.IsNaN(w.Lo) || math.IsNaN(w.Hi) {
		return unbounded
	}
	return w
}
