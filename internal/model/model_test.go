package model

import (
	"testing"
	"testing/quick"
)

func TestStateBasics(t *testing.T) {
	s := NewState()
	if got := s.Get("x"); got != 0 {
		t.Errorf("zero value = %d, want 0", got)
	}
	s.Set("x", 7)
	if got := s.Get("x"); got != 7 {
		t.Errorf("Get after Set = %d, want 7", got)
	}
}

func TestStateCloneIndependence(t *testing.T) {
	s := StateOf(map[Item]Value{"x": 1, "y": 2})
	c := s.Clone()
	c.Set("x", 99)
	if s.Get("x") != 1 {
		t.Error("Clone shares storage with the original")
	}
}

func TestStateOfCopies(t *testing.T) {
	m := map[Item]Value{"x": 1}
	s := StateOf(m)
	m["x"] = 5
	if s.Get("x") != 1 {
		t.Error("StateOf kept a reference to the caller's map")
	}
}

func TestStateEqualTreatsZeroAsAbsent(t *testing.T) {
	a := StateOf(map[Item]Value{"x": 1, "y": 0})
	b := StateOf(map[Item]Value{"x": 1})
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("states differing only in explicit zeros should be equal")
	}
	b.Set("x", 2)
	if a.Equal(b) {
		t.Error("different values reported equal")
	}
}

func TestStateDigestIdentity(t *testing.T) {
	a := StateOf(map[Item]Value{"x": 1, "y": 2, "z": 0})
	b := StateOf(map[Item]Value{"y": 2, "x": 1})
	if a.Digest() != b.Digest() {
		t.Error("equal states (up to explicit zeros) have different digests")
	}
	b.Set("y", 3)
	if a.Digest() == b.Digest() {
		t.Error("different states share a digest")
	}
	// Item boundaries are part of the digest: {"ab"=1} is not {"a"=..., "b"=...}.
	c := StateOf(map[Item]Value{"ab": 1})
	d := StateOf(map[Item]Value{"a": 0, "b": 1})
	if c.Digest() == d.Digest() {
		t.Error("digest ignores item boundaries")
	}
	if NewState().Digest() != StateOf(map[Item]Value{"x": 0}).Digest() {
		t.Error("empty and all-zero states differ")
	}
}

func TestStateDiffApplyRoundTrip(t *testing.T) {
	f := func(ax, ay, bx, bz int8) bool {
		a := StateOf(map[Item]Value{"x": Value(ax), "y": Value(ay)})
		b := StateOf(map[Item]Value{"x": Value(bx), "z": Value(bz)})
		d := a.Diff(b)
		return a.Clone().Apply(d).Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("Apply(Diff) round-trip: %v", err)
	}
}

func TestStateString(t *testing.T) {
	s := StateOf(map[Item]Value{"y": 12, "x": 1, "z": 2})
	if got, want := s.String(), "{x=1; y=12; z=2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestItemSetOps(t *testing.T) {
	a := NewItemSet("x", "y")
	b := NewItemSet("y", "z")
	if got := a.Union(b); len(got) != 3 {
		t.Errorf("Union = %v, want 3 items", got)
	}
	if got := a.Intersect(b); len(got) != 1 || !got.Has("y") {
		t.Errorf("Intersect = %v, want {y}", got)
	}
	if got := a.Minus(b); len(got) != 1 || !got.Has("x") {
		t.Errorf("Minus = %v, want {x}", got)
	}
	if a.Disjoint(b) {
		t.Error("Disjoint(a,b) = true, want false")
	}
	if !a.Disjoint(NewItemSet("w")) {
		t.Error("Disjoint with unrelated set = false, want true")
	}
}

func TestItemSetCloneIndependence(t *testing.T) {
	a := NewItemSet("x")
	c := a.Clone()
	c.Add("y")
	if a.Has("y") {
		t.Error("Clone shares storage")
	}
}

func TestItemSetDeterministicString(t *testing.T) {
	s := NewItemSet("d2", "d10", "d1")
	if got, want := s.String(), "{d1, d10, d2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestSetAlgebraProperties property-checks basic set identities used
// throughout the rewriting code.
func TestSetAlgebraProperties(t *testing.T) {
	mk := func(bits uint8) ItemSet {
		s := make(ItemSet)
		names := []Item{"a", "b", "c", "d"}
		for i, n := range names {
			if bits&(1<<i) != 0 {
				s.Add(n)
			}
		}
		return s
	}
	f := func(x, y uint8) bool {
		a, b := mk(x), mk(y)
		// |A| = |A∩B| + |A−B|
		if len(a) != len(a.Intersect(b))+len(a.Minus(b)) {
			return false
		}
		// A∩B disjoint from A−B
		if !a.Intersect(b).Disjoint(a.Minus(b)) {
			return false
		}
		// Union is commutative in membership.
		u1, u2 := a.Union(b), b.Union(a)
		if len(u1) != len(u2) {
			return false
		}
		for k := range u1 {
			if !u2.Has(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("set algebra: %v", err)
	}
}
