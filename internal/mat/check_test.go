//go:build matcheck

package mat

import "testing"

// These tests only exist under the matcheck tag: they pin that a
// misindexed access — which the flat layout would otherwise satisfy
// silently from a neighboring row — panics loudly in checked builds.

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected bounds panic", name)
		}
	}()
	f()
}

func TestBoundsChecksPanic(t *testing.T) {
	m := New(2, 3)
	mustPanic(t, "At col", func() { m.At(0, 3) })
	mustPanic(t, "At row", func() { m.At(2, 0) })
	mustPanic(t, "At negative", func() { m.At(-1, 0) })
	mustPanic(t, "Set col", func() { m.Set(1, 3, 9) })
	mustPanic(t, "Row", func() { m.Row(2) })

	mi := NewInt(2, 3)
	mustPanic(t, "Int At col", func() { mi.At(1, 3) })
	mustPanic(t, "Int Set row", func() { mi.Set(2, 0, 9) })
	mustPanic(t, "Int Row", func() { mi.Row(-1) })

	// In-bounds accesses still work in checked builds.
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("checked Set/At round trip failed")
	}
}
