// Package bundle reimplements the Android Bundle: the typed key/value
// container that carries saved instance state between an activity that is
// going away and its replacement. RCHDroid funnels all shadow→sunny state
// transfer through a Bundle, exactly as onSaveInstanceState does on stock
// Android, so fidelity here matters for the Table 3 / Table 5 results
// (state survives iff it was placed in a view or in the bundle).
package bundle

import (
	"math"
	"slices"
	"strconv"
)

// Kind identifies the dynamic type of a stored value.
type Kind uint8

// The supported value kinds. They mirror the Bundle putX/getX families the
// paper's migration path exercises (text, numbers, flags, nested state for
// view subtrees and string lists for adapters).
const (
	KindInvalid Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindStringSlice
	KindIntSlice
	KindBundle
)

func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindStringSlice:
		return "[]string"
	case KindIntSlice:
		return "[]int"
	case KindBundle:
		return "bundle"
	default:
		return "invalid"
	}
}

// entry is one key and its value. Scalars share the num word; slices and
// nested bundles sit behind ref, so every kind fits one 64-byte entry.
type entry struct {
	key  string
	str  string // KindString
	num  int64  // KindInt; KindFloat as math.Float64bits; KindBool as 0 or 1
	ref  any    // KindStringSlice []string, KindIntSlice []int64, KindBundle *Bundle
	kind Kind
}

func (e *entry) float() float64 { return math.Float64frombits(uint64(e.num)) }

func (e *entry) strs() []string { v, _ := e.ref.([]string); return v }

func (e *entry) ints() []int64 { v, _ := e.ref.([]int64); return v }

func (e *entry) nested() *Bundle { v, _ := e.ref.(*Bundle); return v }

// Bundle is a typed key/value map. Create one with New.
// Reads on a nil *Bundle are safe and see an empty bundle (a missing
// nested section reads as all-defaults, like a corrupted parcel).
// Bundles are not safe for concurrent use — like the Android original they
// live on a single (virtual) UI thread.
type Bundle struct {
	// entries is sorted by key with no duplicates, so iteration,
	// rendering and equality need no sort and no map.
	entries []entry
}

// New returns an empty Bundle with room for two entries, in the
// bundle's own allocation (see NewCap).
func New() *Bundle { return NewCap(2) }

// NewCap returns an empty Bundle with room for n entries. Up to four
// entries share one allocation with the bundle, which covers every view
// section; a larger bundle allocates its n entries once. A bundle that
// outgrows n still grows as append does.
func NewCap(n int) *Bundle {
	switch {
	case n <= 1:
		s := new(struct {
			b Bundle
			e [1]entry
		})
		s.b.entries = s.e[:0]
		return &s.b
	case n == 2:
		s := new(struct {
			b Bundle
			e [2]entry
		})
		s.b.entries = s.e[:0]
		return &s.b
	case n == 3:
		s := new(struct {
			b Bundle
			e [3]entry
		})
		s.b.entries = s.e[:0]
		return &s.b
	case n == 4:
		s := new(struct {
			b Bundle
			e [4]entry
		})
		s.b.entries = s.e[:0]
		return &s.b
	}
	return &Bundle{entries: make([]entry, 0, n)}
}

// find returns the index of key, or the index it would be inserted at,
// and whether it is present. Safe on a nil receiver.
func (b *Bundle) find(key string) (int, bool) {
	if b == nil {
		return 0, false
	}
	lo, hi := 0, len(b.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.entries[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(b.entries) && b.entries[lo].key == key
}

// lookup returns the entry under key if it holds kind, else nil; safe on
// a nil receiver.
func (b *Bundle) lookup(key string, kind Kind) *entry {
	if i, ok := b.find(key); ok && b.entries[i].kind == kind {
		return &b.entries[i]
	}
	return nil
}

// put stores e under e.key, replacing any value already there. A key
// that sorts after every stored key, as a save in key order writes them,
// is appended without a search.
func (b *Bundle) put(e entry) {
	if n := len(b.entries); n == 0 || b.entries[n-1].key < e.key {
		b.entries = append(b.entries, e)
		return
	}
	if i, ok := b.find(e.key); ok {
		b.entries[i] = e
	} else {
		b.insert(i, e)
	}
}

// insert places e at index i, shifting the entries from i up by one.
func (b *Bundle) insert(i int, e entry) {
	b.entries = append(b.entries, entry{})
	copy(b.entries[i+1:], b.entries[i:])
	b.entries[i] = e
}

// Len returns the number of keys, not counting keys inside nested bundles.
func (b *Bundle) Len() int {
	if b == nil {
		return 0
	}
	return len(b.entries)
}

// IsEmpty reports whether the bundle holds no keys.
func (b *Bundle) IsEmpty() bool { return b.Len() == 0 }

// Keys returns the keys in sorted order, for deterministic iteration.
func (b *Bundle) Keys() []string {
	if b == nil {
		return nil
	}
	keys := make([]string, len(b.entries))
	for i := range b.entries {
		keys[i] = b.entries[i].key
	}
	return keys
}

// KeyAt returns the i-th key in sorted order. It panics if i is out of
// range, as a slice index does.
func (b *Bundle) KeyAt(i int) string { return b.entries[i].key }

// Has reports whether key is present with any kind.
func (b *Bundle) Has(key string) bool {
	_, ok := b.find(key)
	return ok
}

// KindOf returns the kind stored under key, or KindInvalid if absent.
func (b *Bundle) KindOf(key string) Kind {
	if i, ok := b.find(key); ok {
		return b.entries[i].kind
	}
	return KindInvalid
}

// Remove deletes key if present. Removing from a nil bundle is a no-op.
func (b *Bundle) Remove(key string) {
	if i, ok := b.find(key); ok {
		b.entries = slices.Delete(b.entries, i, i+1)
	}
}

// Clear removes all keys.
func (b *Bundle) Clear() { b.entries = nil }

// PutString stores a string value.
func (b *Bundle) PutString(key, v string) { b.put(entry{key: key, kind: KindString, str: v}) }

// GetString returns the string under key, or def if absent or mistyped.
func (b *Bundle) GetString(key, def string) string {
	if e := b.lookup(key, KindString); e != nil {
		return e.str
	}
	return def
}

// PutInt stores an integer value.
func (b *Bundle) PutInt(key string, v int64) { b.put(entry{key: key, kind: KindInt, num: v}) }

// GetInt returns the integer under key, or def if absent or mistyped.
func (b *Bundle) GetInt(key string, def int64) int64 {
	if e := b.lookup(key, KindInt); e != nil {
		return e.num
	}
	return def
}

// PutFloat stores a float value.
func (b *Bundle) PutFloat(key string, v float64) {
	b.put(entry{key: key, kind: KindFloat, num: int64(math.Float64bits(v))})
}

// GetFloat returns the float under key, or def if absent or mistyped.
func (b *Bundle) GetFloat(key string, def float64) float64 {
	if e := b.lookup(key, KindFloat); e != nil {
		return e.float()
	}
	return def
}

// PutBool stores a boolean value.
func (b *Bundle) PutBool(key string, v bool) {
	e := entry{key: key, kind: KindBool}
	if v {
		e.num = 1
	}
	b.put(e)
}

// GetBool returns the boolean under key, or def if absent or mistyped.
func (b *Bundle) GetBool(key string, def bool) bool {
	if e := b.lookup(key, KindBool); e != nil {
		return e.num != 0
	}
	return def
}

// PutStringSlice stores a copy of a string slice.
func (b *Bundle) PutStringSlice(key string, v []string) {
	b.put(entry{key: key, kind: KindStringSlice, ref: copyOf(v)})
}

// GetStringSlice returns a copy of the slice under key, or nil if absent.
func (b *Bundle) GetStringSlice(key string) []string {
	if e := b.lookup(key, KindStringSlice); e != nil {
		return copyOf(e.strs())
	}
	return nil
}

// PutIntSlice stores a copy of an int64 slice.
func (b *Bundle) PutIntSlice(key string, v []int64) {
	b.put(entry{key: key, kind: KindIntSlice, ref: copyOf(v)})
}

// GetIntSlice returns a copy of the slice under key, or nil if absent.
func (b *Bundle) GetIntSlice(key string) []int64 {
	if e := b.lookup(key, KindIntSlice); e != nil {
		return copyOf(e.ints())
	}
	return nil
}

// copyOf returns a non-nil copy of s: a stored slice, even an empty one,
// always reads back as present.
func copyOf[T any](s []T) []T {
	cp := make([]T, len(s))
	copy(cp, s)
	return cp
}

// PutBundle stores a nested bundle. The nested bundle is stored by
// reference, matching Android; callers that need isolation should store a
// Clone.
func (b *Bundle) PutBundle(key string, v *Bundle) {
	b.put(entry{key: key, kind: KindBundle, ref: v})
}

// Section returns the nested bundle under key for writing, creating it
// with NewCap(n) when key is absent or holds another kind or a nil
// section; the created section replaces that value, as PutBundle would.
// It searches b once.
func (b *Bundle) Section(key string, n int) *Bundle {
	i, ok := b.find(key)
	if ok {
		if sec := b.entries[i].nested(); sec != nil {
			return sec
		}
	}
	sec := NewCap(n)
	e := entry{key: key, kind: KindBundle, ref: sec}
	if ok {
		b.entries[i] = e
	} else {
		b.insert(i, e)
	}
	return sec
}

// GetBundle returns the nested bundle under key, or nil if absent.
func (b *Bundle) GetBundle(key string) *Bundle {
	if e := b.lookup(key, KindBundle); e != nil {
		return e.nested()
	}
	return nil
}

// cloneRef deep-copies an entry's reference value: slices are copied and
// nested bundles cloned recursively (a nil section stays nil).
func cloneRef(e *entry) any {
	switch e.kind {
	case KindStringSlice:
		return copyOf(e.strs())
	case KindIntSlice:
		return copyOf(e.ints())
	case KindBundle:
		return e.nested().Clone()
	}
	return nil
}

// Clone returns a deep copy of the bundle; nested bundles and slices are
// copied recursively. The clone of a nil bundle is nil.
func (b *Bundle) Clone() *Bundle {
	if b == nil {
		return nil
	}
	out := NewCap(len(b.entries))
	out.entries = append(out.entries, b.entries...)
	for i := range out.entries {
		out.entries[i].ref = cloneRef(&out.entries[i])
	}
	return out
}

// Merge copies every key of other into b, overwriting duplicates. Nested
// bundles are deep-copied; a nil nested section is carried over as nil.
func (b *Bundle) Merge(other *Bundle) {
	if other == nil {
		return
	}
	for _, e := range other.entries {
		e.ref = cloneRef(&e)
		b.put(e)
	}
}

// SizeBytes estimates the serialized footprint of the bundle, used by the
// memory model to charge the shadow-state snapshot. A nil bundle is 0.
func (b *Bundle) SizeBytes() int {
	if b == nil {
		return 0
	}
	const entryOverhead = 16
	total := 0
	for i := range b.entries {
		e := &b.entries[i]
		total += len(e.key) + entryOverhead
		switch e.kind {
		case KindString:
			total += len(e.str)
		case KindStringSlice:
			for _, s := range e.strs() {
				total += len(s) + 8
			}
		case KindIntSlice:
			total += 8 * len(e.ints())
		case KindBundle:
			total += e.nested().SizeBytes()
		default:
			total += 8
		}
	}
	return total
}

// Equal reports whether two bundles hold the same keys with the same kinds
// and values, recursively. Floats compare as float64: NaN equals nothing
// and -0 equals 0.
func (b *Bundle) Equal(other *Bundle) bool {
	if b == nil || other == nil {
		return b == other
	}
	if len(b.entries) != len(other.entries) {
		return false
	}
	for i := range b.entries {
		if !b.entries[i].equal(&other.entries[i]) {
			return false
		}
	}
	return true
}

func (e *entry) equal(o *entry) bool {
	if e.key != o.key || e.kind != o.kind {
		return false
	}
	switch e.kind {
	case KindString:
		return e.str == o.str
	case KindFloat:
		return e.float() == o.float()
	case KindStringSlice:
		return slices.Equal(e.strs(), o.strs())
	case KindIntSlice:
		return slices.Equal(e.ints(), o.ints())
	case KindBundle:
		return e.nested().Equal(o.nested())
	default:
		return e.num == o.num
	}
}

// String renders the bundle deterministically for logs and golden tests:
// keys in sorted order, strings quoted, floats in shortest %g form. A nil
// bundle renders as "{}".
func (b *Bundle) String() string { return string(b.appendTo(nil)) }

// appendTo appends the canonical rendering of b to dst. Checksum's hash
// walks the same shape through the same leaf renderers, appendKey and
// appendValue, so the two agree byte for byte.
func (b *Bundle) appendTo(dst []byte) []byte {
	dst = append(dst, '{')
	for i := range b.Len() {
		dst = b.appendKey(dst, i)
		if e := &b.entries[i]; e.kind == KindBundle {
			dst = e.nested().appendTo(dst)
		} else {
			dst = e.appendValue(dst)
		}
	}
	return append(dst, '}')
}

// appendKey appends entry i's "key=", preceded by a ", " separator unless
// it is the first.
func (b *Bundle) appendKey(dst []byte, i int) []byte {
	if i > 0 {
		dst = append(dst, ", "...)
	}
	dst = append(dst, b.entries[i].key...)
	return append(dst, '=')
}

// appendValue appends the rendering of a scalar or slice value. Nested
// bundles are walked by the caller, which keeps this function a
// non-recursive leaf: a stack buffer passed to it stays on the stack.
func (e *entry) appendValue(dst []byte) []byte {
	switch e.kind {
	case KindString:
		dst = appendQuoted(dst, e.str)
	case KindInt:
		dst = strconv.AppendInt(dst, e.num, 10)
	case KindFloat:
		dst = strconv.AppendFloat(dst, e.float(), 'g', -1, 64)
	case KindBool:
		dst = strconv.AppendBool(dst, e.num != 0)
	case KindStringSlice:
		dst = append(dst, '[')
		for j, s := range e.strs() {
			if j > 0 {
				dst = append(dst, ' ')
			}
			dst = appendQuoted(dst, s)
		}
		dst = append(dst, ']')
	case KindIntSlice:
		dst = append(dst, '[')
		for j, n := range e.ints() {
			if j > 0 {
				dst = append(dst, ' ')
			}
			dst = strconv.AppendInt(dst, n, 10)
		}
		dst = append(dst, ']')
	}
	return dst
}

// plainByte reports whether strconv.AppendQuote copies c through
// unchanged: printable ASCII other than the double quote and the
// backslash.
func plainByte(c byte) bool { return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' }

// appendQuoted appends s quoted exactly as strconv.AppendQuote does. A
// string of plain bytes quotes to itself between two '"', so it is
// copied in one append; any other string goes through AppendQuote.
func appendQuoted(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return strconv.AppendQuote(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
