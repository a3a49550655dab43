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
// buffer and hashing it in place; only a value whose rendering outgrows
// the buffer allocates.
func (b *Bundle) hash(h uint64) uint64 {
	var buf [256]byte
	h = fnv1a(h, append(buf[:0], '{'))
	for i := range b.Len() {
		h = fnv1a(h, b.appendKey(buf[:0], i))
		if e := &b.entries[i]; e.kind == KindBundle {
			h = e.nested().hash(h)
		} else {
			h = fnv1a(h, e.appendValue(buf[:0]))
		}
	}
	return fnv1a(h, append(buf[:0], '}'))
}

// fnv1a folds p into the running FNV-1a hash h.
func fnv1a(h uint64, p []byte) uint64 {
	for _, c := range p {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}
