package bundle

// FNV-1a 64-bit parameters, as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Checksum returns a content hash of the bundle: FNV-1a over the
// canonical String rendering, so two bundles with equal contents hash
// equally regardless of insertion order. The guard's checksummed state
// transfer (§ supervision) hashes the bundle before handing it to the
// transport and re-hashes on arrival; a mismatch means the transfer
// corrupted or dropped entries in flight. A nil bundle hashes to 0 so a
// wholly lost transfer is always detectable.
func (b *Bundle) Checksum() uint64 {
	if b == nil {
		return 0
	}
	return b.hash(fnvOffset64)
}

// hash folds b's canonical rendering into h without materialising it. It
// walks b as appendTo does, rendering each key and value into a stack
// buffer and hashing it in place. A string value of plain bytes (see
// plainByte) renders as itself between quotes, so it is hashed where it
// lies; only another value whose rendering outgrows the buffer allocates.
func (b *Bundle) hash(h uint64) uint64 {
	var buf [256]byte
	h = fnv1a(h, "{")
	for i := range b.Len() {
		h = fnv1a(h, b.appendKey(buf[:0], i))
		e := &b.entries[i]
		if e.kind == KindBundle {
			h = e.nested().hash(h)
			continue
		}
		if e.kind == KindString {
			if q, ok := hashPlain(h, e.str); ok {
				h = q
				continue
			}
		}
		h = fnv1a(h, e.appendValue(buf[:0]))
	}
	return fnv1a(h, "}")
}

// hashPlain folds the quoted rendering of s into h when every byte of s
// is plain, reading s in place. It reports false, and h is to be
// discarded, at the first byte AppendQuote would escape.
func hashPlain(h uint64, s string) (uint64, bool) {
	h = fnv1a(h, `"`)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !plainByte(c) {
			return 0, false
		}
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return fnv1a(h, `"`), true
}

// fnv1a folds p into the running FNV-1a hash h.
func fnv1a[T string | []byte](h uint64, p T) uint64 {
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= fnvPrime64
	}
	return h
}
