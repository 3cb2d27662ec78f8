package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var th = DefaultThresholds

func TestLeftBasic(t *testing.T) {
	// "Author" label at (10,40,10,20), textbox at (50,100,10,20) — the Qam
	// fragment from Figure 5 of the paper.
	label := R(10, 40, 10, 20)
	box := R(50, 100, 10, 20)
	if !th.Left(label, box) {
		t.Error("label should be Left of textbox")
	}
	if th.Left(box, label) {
		t.Error("Left must not hold in reverse")
	}
	if !th.Right(box, label) {
		t.Error("box should be Right of label")
	}
}

func TestLeftRejectsFarGap(t *testing.T) {
	a := R(0, 10, 0, 10)
	b := R(10+th.MaxHGap+1, 300, 0, 10)
	if th.Left(a, b) {
		t.Error("Left should fail beyond MaxHGap")
	}
	if !th.Left(a, R(10+th.MaxHGap-1, 300, 0, 10)) {
		t.Error("Left should hold within MaxHGap")
	}
}

func TestLeftRequiresRowOverlap(t *testing.T) {
	a := R(0, 10, 0, 10)
	b := R(20, 40, 30, 40) // different row
	if th.Left(a, b) {
		t.Error("Left should require vertical overlap")
	}
	// Marginal overlap below the fraction threshold.
	c := R(20, 40, 9, 19) // only 1px of 10px overlap
	if th.Left(a, c) {
		t.Error("Left should require MinOverlapFrac of vertical overlap")
	}
}

func TestAboveBasic(t *testing.T) {
	label := R(10, 60, 0, 14)
	box := R(10, 160, 18, 40)
	if !th.Above(label, box) {
		t.Error("label should be Above box")
	}
	if th.Above(box, label) {
		t.Error("Above must not hold in reverse")
	}
	if !th.Below(box, label) {
		t.Error("box should be Below label")
	}
}

func TestAboveLeftAlignedWithoutHOverlap(t *testing.T) {
	// A narrow label above a field that starts at the same left edge but the
	// label sits within the field's x-range... make them disjoint in x but
	// left-aligned: label (10..40), field (10..200) overlaps; craft disjoint:
	label := R(10, 40, 0, 14)
	field := R(10, 200, 18, 40)
	if !th.Above(label, field) {
		t.Error("left-aligned label should be Above field")
	}
	// Disjoint in x and not aligned: should fail.
	off := R(300, 340, 0, 14)
	if th.Above(off, field) {
		t.Error("horizontally disjoint, unaligned label should not be Above")
	}
}

func TestAboveRejectsFarGap(t *testing.T) {
	a := R(0, 100, 0, 10)
	b := R(0, 100, 10+th.MaxVGap+1, 100)
	if th.Above(a, b) {
		t.Error("Above should fail beyond MaxVGap")
	}
}

func TestAlignment(t *testing.T) {
	a := R(10, 50, 10, 20)
	if !th.AlignedLeft(a, R(12, 80, 40, 60)) {
		t.Error("AlignedLeft within tolerance should hold")
	}
	if th.AlignedLeft(a, R(20, 80, 40, 60)) {
		t.Error("AlignedLeft beyond tolerance should fail")
	}
	if !th.AlignedRight(a, R(0, 52, 0, 5)) {
		t.Error("AlignedRight within tolerance should hold")
	}
	if !th.AlignedTop(a, R(100, 120, 8, 30)) {
		t.Error("AlignedTop within tolerance should hold")
	}
	if !th.AlignedBottom(a, R(100, 120, 0, 22)) {
		t.Error("AlignedBottom within tolerance should hold")
	}
	if !th.AlignedMiddle(a, R(100, 120, 12, 18)) {
		t.Error("AlignedMiddle within tolerance should hold")
	}
}

func TestSameRowColumn(t *testing.T) {
	a := R(0, 30, 0, 20)
	if !th.SameRow(a, R(500, 600, 2, 18)) {
		t.Error("SameRow should ignore horizontal distance")
	}
	if th.SameRow(a, R(0, 30, 25, 45)) {
		t.Error("SameRow should fail for stacked rects")
	}
	if !th.SameColumn(a, R(5, 25, 500, 600)) {
		t.Error("SameColumn should ignore vertical distance")
	}
	if th.SameColumn(a, R(40, 80, 500, 600)) {
		t.Error("SameColumn should fail for side-by-side rects")
	}
}

func TestNear(t *testing.T) {
	a := R(0, 10, 0, 10)
	if !Near(a, R(12, 20, 0, 10), 5) {
		t.Error("Near within radius should hold")
	}
	if Near(a, R(20, 30, 0, 10), 5) {
		t.Error("Near beyond radius should fail")
	}
}

// Property: Left and Right are mutually exclusive for non-degenerate,
// non-overlapping rects, and Left(a,b) implies SameRow(a,b).
func TestLeftPropertyAntisymmetric(t *testing.T) {
	f := func(ax, aw, ay, ah, bx, bw, by, bh uint16) bool {
		a := boundedRect(ax, aw|1, ay, ah|1)
		b := boundedRect(bx, bw|1, by, bh|1)
		if th.Left(a, b) {
			if th.Left(b, a) && a != b {
				return false
			}
			if !th.SameRow(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Above/Below are converses, as are Left/Right.
func TestConverseProperty(t *testing.T) {
	f := func(ax, aw, ay, ah, bx, bw, by, bh uint16) bool {
		a := boundedRect(ax, aw, ay, ah)
		b := boundedRect(bx, bw, by, bh)
		return th.Above(a, b) == th.Below(b, a) && th.Left(a, b) == th.Right(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: relations are translation invariant.
func TestTranslationInvariance(t *testing.T) {
	f := func(ax, aw, ay, ah, bx, bw, by, bh uint16, dx, dy int16) bool {
		a := boundedRect(ax, aw, ay, ah)
		b := boundedRect(bx, bw, by, bh)
		fx, fy := float64(dx), float64(dy)
		at, bt := a.Translate(fx, fy), b.Translate(fx, fy)
		return th.Left(a, b) == th.Left(at, bt) &&
			th.Above(a, b) == th.Above(at, bt) &&
			th.AlignedLeft(a, b) == th.AlignedLeft(at, bt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAdjacencyWindowProperty checks the join-window contract the parser
// relies on: whenever Left(a, b) or Above(a, b) holds, b's leading edge lies
// in AfterWindow(a) and a's trailing edge in BeforeWindow(b). Pairs are
// built around the gap bounds (exactly on them and one ulp to either side),
// at pixel, fractional and 1e12 magnitudes, under default and randomized
// thresholds, so the windows' float padding is exercised where rounding
// actually bites.
func TestAdjacencyWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	coord := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return float64(rng.Intn(1200))
		case 1:
			return rng.Float64() * 1200
		case 2:
			return (rng.Float64() - 0.5) * 2e12
		default:
			return (rng.Float64() - 0.5) * 1e-3
		}
	}
	held := 0
	for i := 0; i < 200000; i++ {
		tt := DefaultThresholds
		if rng.Intn(2) == 0 {
			tt = Thresholds{
				MaxHGap:        rng.Float64() * 300,
				MaxVGap:        rng.Float64() * 80,
				AlignTol:       rng.Float64() * 10,
				MinOverlapFrac: rng.Float64(),
			}
		}
		ax := Axis(rng.Intn(2))
		// The gap b.Lead - a.Trail: on a bound, an ulp off it, or anywhere
		// near the admissible range.
		var gap float64
		switch rng.Intn(3) {
		case 0:
			gap = -tt.AlignTol
		case 1:
			gap = tt.maxGap(ax)
		default:
			gap = -tt.AlignTol - 5 + rng.Float64()*(tt.maxGap(ax)+tt.AlignTol+10)
		}
		start := coord()
		aLen := rng.Float64() * 200
		aTrail := start + aLen
		bLead := aTrail + gap
		switch rng.Intn(3) {
		case 0:
			bLead = math.Nextafter(bLead, math.Inf(1))
		case 1:
			bLead = math.Nextafter(bLead, math.Inf(-1))
		}
		bTrail := bLead + rng.Float64()*200
		// Perpendicular extents overlap fully, so the gap tests decide.
		p1 := coord()
		p2 := p1 + 1 + rng.Float64()*40
		var a, b Rect
		rel := tt.Left
		if ax == Horizontal {
			a, b = R(start, aTrail, p1, p2), R(bLead, bTrail, p1, p2)
		} else {
			a, b = R(p1, p2, start, aTrail), R(p1, p2, bLead, bTrail)
			rel = tt.Above
		}
		if !rel(a, b) {
			continue
		}
		held++
		if w := tt.AfterWindow(ax, a); !w.Contains(b.Lead(ax)) {
			t.Fatalf("axis %d: rel(%v, %v) holds under %+v but AfterWindow %+v excludes %v",
				ax, a, b, tt, w, b.Lead(ax))
		}
		if w := tt.BeforeWindow(ax, b); !w.Contains(a.Trail(ax)) {
			t.Fatalf("axis %d: rel(%v, %v) holds under %+v but BeforeWindow %+v excludes %v",
				ax, a, b, tt, w, a.Trail(ax))
		}
	}
	if held < 50000 {
		t.Fatalf("only %d of the generated pairs satisfied the relation", held)
	}
}

// TestAdjacencyWindowNonFinite pins the degenerate inputs: a non-finite
// anchor or threshold yields the unbounded window, and NaN is never
// excluded (a NaN coordinate can pass every gap test).
func TestAdjacencyWindowNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, a := range []Rect{R(0, inf, 0, 10), R(-inf, -inf, 0, 10), R(0, nan, 0, 10)} {
		if w := th.AfterWindow(Horizontal, a); w != unbounded {
			t.Errorf("AfterWindow(%v) = %+v, want unbounded", a, w)
		}
	}
	if w := (Thresholds{MaxVGap: nan}).AfterWindow(Vertical, R(0, 10, 0, 10)); w != unbounded {
		t.Errorf("NaN threshold: window %+v, want unbounded", w)
	}
	if !th.AfterWindow(Horizontal, R(0, 10, 0, 10)).Contains(nan) {
		t.Error("a NaN coordinate must never be excluded")
	}
	if th.AfterWindow(Horizontal, R(0, 10, 0, 10)).Contains(inf) {
		t.Error("+Inf lies outside a finite window")
	}
}
