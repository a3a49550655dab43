package bundle

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// referenceString is the fmt-based renderer String used before it moved
// to strconv. It reads the bundle only through the public API, and pins
// the canonical rendering that checksums, oracle essences and reports
// are built on.
func referenceString(b *Bundle) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range b.Keys() {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch b.KindOf(k) {
		case KindString:
			fmt.Fprintf(&sb, "%s=%q", k, b.GetString(k, ""))
		case KindInt:
			fmt.Fprintf(&sb, "%s=%d", k, b.GetInt(k, 0))
		case KindFloat:
			fmt.Fprintf(&sb, "%s=%g", k, b.GetFloat(k, 0))
		case KindBool:
			fmt.Fprintf(&sb, "%s=%t", k, b.GetBool(k, false))
		case KindStringSlice:
			fmt.Fprintf(&sb, "%s=%q", k, b.GetStringSlice(k))
		case KindIntSlice:
			fmt.Fprintf(&sb, "%s=%v", k, b.GetIntSlice(k))
		case KindBundle:
			fmt.Fprintf(&sb, "%s=%s", k, referenceString(b.GetBundle(k)))
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// referenceEqual is Equal's contract spelled out through the public API:
// same keys, same kinds, floats compared as float64 (NaN equals nothing,
// -0 equals 0), slices element-wise, sections recursively with a nil
// section equal only to nil.
func referenceEqual(a, b *Bundle) bool {
	if a == nil || b == nil {
		return a == b
	}
	ka, kb := a.Keys(), b.Keys()
	if len(ka) != len(kb) {
		return false
	}
	for i, k := range ka {
		if kb[i] != k || a.KindOf(k) != b.KindOf(k) {
			return false
		}
		var same bool
		switch a.KindOf(k) {
		case KindString:
			same = a.GetString(k, "") == b.GetString(k, "")
		case KindInt:
			same = a.GetInt(k, 0) == b.GetInt(k, 0)
		case KindFloat:
			same = a.GetFloat(k, 0) == b.GetFloat(k, 0)
		case KindBool:
			same = a.GetBool(k, false) == b.GetBool(k, false)
		case KindStringSlice:
			same = fmt.Sprintf("%q", a.GetStringSlice(k)) == fmt.Sprintf("%q", b.GetStringSlice(k))
		case KindIntSlice:
			same = fmt.Sprint(a.GetIntSlice(k)) == fmt.Sprint(b.GetIntSlice(k))
		case KindBundle:
			same = referenceEqual(a.GetBundle(k), b.GetBundle(k))
		}
		if !same {
			return false
		}
	}
	return true
}

// Value pools for generated bundles: the floats and strings where a
// strconv renderer is most likely to part ways with fmt.
var (
	renderFloats = []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		1e21, 1e20, 1e-7, 1e-5, 0.1, -2.5, 123456789, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1.0 / 3,
	}
	renderStrings = append([]string{
		"", "a", "quote\"inside", "tab\there", "nl\n", "\x00",
		"\xff\xfe", "héllo", "日本", " ", "a=b, c", "{}", "[x y]", "view:7",
	}, plainBoundary...)

	// plainBoundary sits on both sides of the line between the strings
	// Checksum hashes in place (every byte printable ASCII other than the
	// double quote and the backslash) and those it renders through
	// strconv.AppendQuote: the bytes either side of the printable range,
	// the two escaped ASCII bytes, a multi-byte rune, invalid UTF-8, and
	// strings longer than the hash's 256-byte stack buffer, plain and
	// escaped.
	plainBoundary = []string{
		"\x1f", " ", "~", "\x7f", `"`, `\`, "é", "\xff",
		strings.Repeat("p", 300), strings.Repeat("p", 299) + `"`,
	}
)

// genReader draws generator choices from a byte string; once it runs dry
// every draw reads zero, so any input builds a finite bundle.
type genReader struct{ data []byte }

func (r *genReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	c := r.data[0]
	r.data = r.data[1:]
	return c
}

func (r *genReader) word() uint64 {
	var w [8]byte
	for i := range w {
		w[i] = r.byte()
	}
	return binary.LittleEndian.Uint64(w[:])
}

func (r *genReader) str() string {
	c := r.byte()
	if c < 200 {
		return renderStrings[int(c)%len(renderStrings)]
	}
	n := int(r.byte() % 8)
	s := make([]byte, n)
	for i := range s {
		s[i] = r.byte()
	}
	return string(s)
}

// genBundle builds a bundle, nested up to depth levels, from r's bytes.
func genBundle(r *genReader, depth int) *Bundle {
	b := New()
	for n := int(r.byte() % 8); n > 0; n-- {
		key := r.str()
		switch r.byte() % 10 {
		case 0:
			b.PutString(key, r.str())
		case 1:
			b.PutInt(key, int64(r.word()))
		case 2:
			b.PutFloat(key, renderFloats[int(r.byte())%len(renderFloats)])
		case 3:
			b.PutFloat(key, math.Float64frombits(r.word()))
		case 4:
			b.PutBool(key, r.byte()%2 == 0)
		case 5:
			var ss []string // nil when empty
			for m := int(r.byte() % 4); m > 0; m-- {
				ss = append(ss, r.str())
			}
			b.PutStringSlice(key, ss)
		case 6:
			is := []int64{} // empty, not nil, when empty
			for m := int(r.byte() % 4); m > 0; m-- {
				is = append(is, int64(r.word()))
			}
			b.PutIntSlice(key, is)
		case 7:
			b.PutBundle(key, nil)
		case 8, 9:
			if depth > 0 {
				b.PutBundle(key, genBundle(r, depth-1))
			} else {
				b.Remove(key)
			}
		}
	}
	return b
}

// checkRender asserts the rendering and checksum contracts on b.
func checkRender(t *testing.T, b *Bundle) {
	t.Helper()
	got, want := b.String(), referenceString(b)
	if got != want {
		t.Fatalf("String diverged from the fmt reference:\n got %q\nwant %q", got, want)
	}
	h := fnv.New64a()
	h.Write([]byte(want))
	if b.Checksum() != h.Sum64() {
		t.Fatalf("Checksum %#x != FNV-1a-64 of String %#x for %q", b.Checksum(), h.Sum64(), want)
	}
	c := b.Clone()
	if c.String() != got || c.Checksum() != b.Checksum() {
		t.Fatalf("clone renders %q, original %q", c, got)
	}
	if b.Equal(c) != referenceEqual(b, c) {
		t.Fatalf("Equal(clone) = %v, reference says %v for %q", b.Equal(c), referenceEqual(b, c), got)
	}
	if keys := b.Keys(); len(keys) > 0 {
		c.Remove(keys[0])
		if b.Equal(c) || referenceEqual(b, c) {
			t.Fatalf("removing %q kept the bundle Equal: %q", keys[0], got)
		}
	}
}

// Property: over random nested bundles, String is byte-equal to the fmt
// reference, Checksum is FNV-1a-64 of String, and Equal keeps its float64
// answer (a NaN never equals itself, so a bundle holding one is not
// Equal to its clone).
func TestRenderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nan := 0
	for i := 0; i < 2000; i++ {
		data := make([]byte, 64+rng.Intn(192))
		rng.Read(data)
		b := genBundle(&genReader{data: data}, 3)
		checkRender(t, b)
		if strings.Contains(b.String(), "NaN") && !b.Equal(b.Clone()) {
			nan++
		}
	}
	if nan == 0 {
		t.Fatal("no generated bundle exercised NaN inequality")
	}
	var nilB *Bundle
	if nilB.String() != "{}" || nilB.Checksum() != 0 {
		t.Fatalf("nil bundle renders %q, checksum %#x", nilB, nilB.Checksum())
	}
}

func TestRenderSpecialFloats(t *testing.T) {
	b := New()
	for i, f := range renderFloats {
		b.PutFloat(fmt.Sprintf("f%02d", i), f)
	}
	checkRender(t, b)
	want := "{f00=NaN, f01=+Inf, f02=-Inf, f03=-0, f04=0, f05=1e+21"
	if got := b.String(); !strings.HasPrefix(got, want) {
		t.Fatalf("String = %s, want prefix %s", got, want)
	}
	z := New()
	z.PutFloat("z", 0)
	n := New()
	n.PutFloat("z", math.Copysign(0, -1))
	if !z.Equal(n) {
		t.Fatal("-0 and 0 must stay Equal: floats compare as float64")
	}
}

// FuzzBundleRender builds a nested bundle from the fuzz input and checks
// the rendering and checksum contracts of TestRenderMatchesReference.
// `go test` runs the seed corpus; `go test -fuzz=FuzzBundleRender`
// explores.
func FuzzBundleRender(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 2, 0, 1, 2, 0, 2, 2, 0, 3, 2, 0, 4, 7, 9, 1, 3, 5})
	f.Add([]byte{5, 201, 3, '"', 0, 255, 8, 3, 1, 5, 2, 0, 7, 6, 3})
	f.Add([]byte("\x06\x10\x05\x03\x11\x12\x13\x06\x02\x07\x09\x04\x00\x01\x02\x03\x04\x05\x06\x07"))
	view7 := byte(slices.Index(renderStrings, "view:7"))
	for _, str := range plainBoundary {
		i := byte(slices.Index(renderStrings, str))
		// Three entries: key "a" holding str, key "view:7" holding
		// [str "a"], and key str holding an int.
		f.Add([]byte{3, 1, 0, i, view7, 5, 2, i, 1, i, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRender(t, genBundle(&genReader{data: data}, 3))
	})
}

// TestChecksumAtPlainEscapeBoundary: on each side of the line between
// strings hashed in place and strings quoted through strconv, as a
// value, inside a longer value, as a string-slice element and in a
// nested section, String matches the fmt reference and Checksum is
// FNV-1a-64 of String.
func TestChecksumAtPlainEscapeBoundary(t *testing.T) {
	for _, s := range plainBoundary {
		b := New()
		b.PutString("s", s)
		b.PutString("t", "a"+s+"b")
		b.PutStringSlice("ss", []string{s, "plain", s})
		sec := New()
		sec.PutString("text", s)
		b.PutBundle("view:1", sec)
		checkRender(t, b)
	}
}
