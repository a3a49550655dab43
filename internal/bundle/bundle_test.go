package bundle

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestPutGetRoundTrip(t *testing.T) {
	b := New()
	b.PutString("s", "hello")
	b.PutInt("i", 42)
	b.PutFloat("f", 3.5)
	b.PutBool("b", true)
	b.PutStringSlice("ss", []string{"a", "b"})
	b.PutIntSlice("is", []int64{1, 2, 3})

	if got := b.GetString("s", ""); got != "hello" {
		t.Errorf("GetString = %q", got)
	}
	if got := b.GetInt("i", 0); got != 42 {
		t.Errorf("GetInt = %d", got)
	}
	if got := b.GetFloat("f", 0); got != 3.5 {
		t.Errorf("GetFloat = %v", got)
	}
	if !b.GetBool("b", false) {
		t.Error("GetBool = false")
	}
	if got := b.GetStringSlice("ss"); len(got) != 2 || got[1] != "b" {
		t.Errorf("GetStringSlice = %v", got)
	}
	if got := b.GetIntSlice("is"); len(got) != 3 || got[2] != 3 {
		t.Errorf("GetIntSlice = %v", got)
	}
	if b.Len() != 6 {
		t.Errorf("Len = %d, want 6", b.Len())
	}
}

func TestDefaultsOnMissingOrMistyped(t *testing.T) {
	b := New()
	b.PutInt("x", 1)
	if got := b.GetString("x", "def"); got != "def" {
		t.Errorf("mistyped GetString = %q, want def", got)
	}
	if got := b.GetString("absent", "def"); got != "def" {
		t.Errorf("missing GetString = %q, want def", got)
	}
	if got := b.GetInt("absent", -7); got != -7 {
		t.Errorf("missing GetInt = %d, want -7", got)
	}
	if b.GetStringSlice("absent") != nil {
		t.Error("missing GetStringSlice != nil")
	}
	if b.GetBundle("absent") != nil {
		t.Error("missing GetBundle != nil")
	}
}

func TestKindOfAndHas(t *testing.T) {
	b := New()
	b.PutBool("flag", false)
	if !b.Has("flag") {
		t.Error("Has(flag) = false")
	}
	if b.Has("nope") {
		t.Error("Has(nope) = true")
	}
	if b.KindOf("flag") != KindBool {
		t.Errorf("KindOf = %v", b.KindOf("flag"))
	}
	if b.KindOf("nope") != KindInvalid {
		t.Errorf("KindOf missing = %v", b.KindOf("nope"))
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindString: "string", KindInt: "int", KindFloat: "float",
		KindBool: "bool", KindStringSlice: "[]string", KindIntSlice: "[]int",
		KindBundle: "bundle", KindInvalid: "invalid",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestSlicesAreCopiedOnPutAndGet(t *testing.T) {
	src := []string{"a", "b"}
	b := New()
	b.PutStringSlice("s", src)
	src[0] = "mutated"
	got := b.GetStringSlice("s")
	if got[0] != "a" {
		t.Error("Put did not copy the slice")
	}
	got[1] = "mutated"
	if b.GetStringSlice("s")[1] != "b" {
		t.Error("Get did not copy the slice")
	}
}

func TestNestedBundle(t *testing.T) {
	inner := New()
	inner.PutString("k", "v")
	outer := New()
	outer.PutBundle("view:1", inner)
	if got := outer.GetBundle("view:1").GetString("k", ""); got != "v" {
		t.Errorf("nested get = %q", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	inner := New()
	inner.PutInt("n", 1)
	b := New()
	b.PutBundle("in", inner)
	b.PutStringSlice("ss", []string{"x"})

	c := b.Clone()
	inner.PutInt("n", 2)
	if got := c.GetBundle("in").GetInt("n", 0); got != 1 {
		t.Errorf("clone shares nested bundle: n = %d", got)
	}
	if !b.Equal(b.Clone()) {
		t.Error("clone not Equal to original")
	}
}

func TestMergeOverwritesAndDeepCopies(t *testing.T) {
	a := New()
	a.PutString("k", "old")
	inner := New()
	inner.PutBool("f", true)
	o := New()
	o.PutString("k", "new")
	o.PutBundle("in", inner)
	a.Merge(o)
	if got := a.GetString("k", ""); got != "new" {
		t.Errorf("merge did not overwrite: %q", got)
	}
	inner.PutBool("f", false)
	if !a.GetBundle("in").GetBool("f", false) {
		t.Error("merge shared nested bundle")
	}
	a.Merge(nil) // must not panic
}

func TestEqual(t *testing.T) {
	mk := func() *Bundle {
		b := New()
		b.PutString("s", "x")
		b.PutIntSlice("is", []int64{1, 2})
		n := New()
		n.PutFloat("f", 1.25)
		b.PutBundle("n", n)
		return b
	}
	a, b := mk(), mk()
	if !a.Equal(b) {
		t.Fatal("identical bundles not Equal")
	}
	b.PutString("s", "y")
	if a.Equal(b) {
		t.Fatal("different bundles Equal")
	}
	var nilB *Bundle
	if a.Equal(nilB) {
		t.Fatal("Equal(nil) = true")
	}
}

func TestRemoveAndClear(t *testing.T) {
	b := New()
	b.PutInt("a", 1)
	b.PutInt("b", 2)
	b.Remove("a")
	if b.Has("a") || !b.Has("b") {
		t.Fatal("Remove misbehaved")
	}
	b.Clear()
	if !b.IsEmpty() {
		t.Fatal("Clear left keys")
	}
}

func TestKeysSorted(t *testing.T) {
	b := New()
	for _, k := range []string{"zeta", "alpha", "mid"} {
		b.PutInt(k, 0)
	}
	keys := b.Keys()
	if keys[0] != "alpha" || keys[1] != "mid" || keys[2] != "zeta" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestSizeBytesGrowsWithContent(t *testing.T) {
	b := New()
	empty := b.SizeBytes()
	if empty != 0 {
		t.Fatalf("empty size = %d", empty)
	}
	b.PutString("k", "0123456789")
	small := b.SizeBytes()
	if small <= empty {
		t.Fatal("size did not grow")
	}
	b.PutString("k2", strings.Repeat("x", 1000))
	if b.SizeBytes() <= small+900 {
		t.Fatalf("size %d did not account for large string", b.SizeBytes())
	}
	n := New()
	n.PutIntSlice("is", []int64{1, 2, 3, 4})
	b.PutBundle("nested", n)
	if b.SizeBytes() < small+1000+32 {
		t.Fatal("nested bundle not accounted")
	}
}

func TestStringDeterministic(t *testing.T) {
	b := New()
	b.PutInt("b", 2)
	b.PutString("a", "x")
	want := `{a="x", b=2}`
	if got := b.String(); got != want {
		t.Fatalf("String = %s, want %s", got, want)
	}
}

// Property: Clone always Equals the original, and mutating the clone never
// affects the original.
func TestCloneProperty(t *testing.T) {
	f := func(keys []string, vals []int64) bool {
		b := New()
		for i, k := range keys {
			if i < len(vals) {
				b.PutInt(k, vals[i])
			} else {
				b.PutString(k, k)
			}
		}
		c := b.Clone()
		if !b.Equal(c) {
			return false
		}
		c.PutInt("__new__", 1)
		return !b.Has("__new__")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: last Put wins for any interleaving of two writes to one key.
func TestLastPutWinsProperty(t *testing.T) {
	f := func(a, b int64) bool {
		bd := New()
		bd.PutInt("k", a)
		bd.PutInt("k", b)
		return bd.GetInt("k", 0) == b && bd.Len() == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A nil nested section reads as all-defaults, so every operation over a
// bundle holding one — and over a nil bundle itself — must succeed.
func TestNilSections(t *testing.T) {
	b := New()
	b.PutBundle("sec", nil)
	b.PutInt("n", 1)
	if got, want := b.SizeBytes(), len("sec")+16+len("n")+16+8; got != want {
		t.Errorf("SizeBytes with a nil section = %d, want %d", got, want)
	}
	c := b.Clone()
	if !c.Equal(b) || c.KindOf("sec") != KindBundle || c.GetBundle("sec") != nil {
		t.Errorf("Clone = %s, want a nil section carried over", c)
	}
	m := New()
	m.PutBundle("sec", New())
	m.Merge(b)
	if !m.Equal(b) || m.GetBundle("sec") != nil {
		t.Errorf("Merge = %s, want the nil section carried over as nil", m)
	}
	if got := b.String(); got != "{n=1, sec={}}" {
		t.Errorf("String = %s", got)
	}

	var nilB *Bundle
	if nilB.SizeBytes() != 0 {
		t.Error("nil SizeBytes != 0")
	}
	if nilB.Clone() != nil || !nilB.Clone().Equal(nilB) {
		t.Error("nil Clone is not nil")
	}
	nilB.Remove("k") // must not panic
}

// NewCap gives room for n entries up front and still grows past n.
func TestNewCap(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 64} {
		b := NewCap(n)
		if b.Len() != 0 || cap(b.entries) < n {
			t.Fatalf("NewCap(%d): len %d, room for %d", n, b.Len(), cap(b.entries))
		}
		ref := New()
		for i := n + 3; i > 0; i-- { // past n, in descending key order
			k := fmt.Sprintf("k%02d", i)
			b.PutInt(k, int64(i))
			ref.PutInt(k, int64(i))
		}
		if !b.Equal(ref) || b.String() != ref.String() {
			t.Fatalf("NewCap(%d) filled past n = %s, want %s", n, b, ref)
		}
	}
}

// Section finds or creates a nested bundle in one search, with the
// outcome PutBundle gives: it reuses a section already there, and
// replaces a value of another kind or a nil section with a new one.
func TestSection(t *testing.T) {
	// reference is the two-search find-or-create Section replaces.
	reference := func(b *Bundle, key string) *Bundle {
		sec := b.GetBundle(key)
		if sec == nil {
			sec = New()
			b.PutBundle(key, sec)
		}
		return sec
	}
	fill := func(b *Bundle) {
		b.PutString("view:1", "not a section")
		b.PutBundle("view:2", nil)
		sec := New()
		sec.PutBool("visible", true)
		b.PutBundle("view:3", sec)
		b.PutIntSlice("view:4", []int64{1})
	}
	for _, key := range []string{"view:0", "view:1", "view:2", "view:3", "view:4", "view:9"} {
		got, want := New(), New()
		fill(got)
		fill(want)
		existing := got.GetBundle(key)
		sec := got.Section(key, 3)
		wantSec := reference(want, key)
		if sec == nil || got.GetBundle(key) != sec {
			t.Fatalf("Section(%q) = %p, bundle holds %p", key, sec, got.GetBundle(key))
		}
		if existing != nil && sec != existing {
			t.Fatalf("Section(%q) replaced the section already there", key)
		}
		if existing == nil && (sec.Len() != 0 || cap(sec.entries) < 3) {
			t.Fatalf("Section(%q) created %s with room for %d, want empty with room for 3", key, sec, cap(sec.entries))
		}
		sec.PutInt("n", 1)
		wantSec.PutInt("n", 1)
		if !got.Equal(want) || got.String() != want.String() {
			t.Fatalf("Section(%q): %s, want %s", key, got, want)
		}
	}
}

// Property: whatever order keys arrive in, including ascending runs that
// take put's append path and a key put again while it sorts last, the
// bundle holds each key once, in sorted order, with its last value.
func TestPutKeepsKeysSortedProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		b := New()
		model := map[string]int64{}
		for i, op := range ops {
			k := fmt.Sprintf("k%03d", op%512)
			if op&0x8000 != 0 { // an ascending run through the append path
				k = fmt.Sprintf("k%03d", 512+i)
			}
			v := int64(i)
			b.PutInt(k, v)
			if op&0x4000 != 0 { // the same key again
				v = -v
				b.PutInt(k, v)
			}
			model[k] = v
		}
		keys := b.Keys()
		if len(keys) != len(model) || !slices.IsSorted(keys) {
			return false
		}
		for i, k := range keys {
			if (i > 0 && keys[i-1] == k) || b.GetInt(k, -1) != model[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
