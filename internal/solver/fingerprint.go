package solver

// Fingerprint is a fixed-size comparable group key: an additive set
// hash of the group's constraints. Each constraint's hash-consed node id
// is mixed into two 64-bit lanes by two unrelated full-avalanche
// permutations (idKey), and a group's key is the lane-wise sum, mod
// 2^64, of its constraints' keys. A sum does not depend on constraint
// order; merging groups adds their keys, with no id list kept and
// nothing sorted; and the key of a prefix of a group's constraints is
// the group's key less the keys of the rest (Solver.carried).
//
// Collisions. Hash-consing gives distinct constraints distinct ids, and
// a group holds each constraint once (Extend drops a duplicate), so two
// distinct groups share a key only if the keys of the constraints one
// holds and the other does not sum to the same value in both lanes at
// once. With the mixed ids behaving as independent uniform values that
// is about 2^-64 per lane, 2^-128 for a given pair of groups. A sum is
// no defence against ids chosen to collide (a generalized-birthday
// search finds subsets with equal sums), but no input chooses ids: they
// are the builder's own sequence numbers.
type Fingerprint struct {
	hi, lo uint64
}

// idKey is the key of the one-constraint group holding node id: the id
// through mix64 in one lane and through fmix64 in the other, each offset
// by a constant so that no id maps to the empty group's zero key.
func idKey(id int64) Fingerprint {
	x := uint64(id)
	return Fingerprint{hi: mix64(x ^ 0x9e3779b97f4a7c15), lo: fmix64(x ^ 0xc2b2ae3d27d4eb4f)}
}

// plus is the key of the union of two disjoint groups.
func (f Fingerprint) plus(g Fingerprint) Fingerprint {
	return Fingerprint{hi: f.hi + g.hi, lo: f.lo + g.lo}
}

// minus is the key of f's group without g's constraints, which it holds.
func (f Fingerprint) minus(g Fingerprint) Fingerprint {
	return Fingerprint{hi: f.hi - g.hi, lo: f.lo - g.lo}
}

// fmix64 is MurmurHash3's 64-bit finalizer: a second full-avalanche
// permutation, with constants unrelated to mix64's.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// mix64 is the splitmix64 finalizer, a full-avalanche 64-bit
// permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hex renders the fingerprint as 32 lowercase hex digits, the form the
// on-disk verdict store uses as file names.
func (f Fingerprint) Hex() string {
	const digits = "0123456789abcdef"
	var b [32]byte
	for i := 0; i < 16; i++ {
		var by byte
		if i < 8 {
			by = byte(f.hi >> (56 - 8*i))
		} else {
			by = byte(f.lo >> (56 - 8*(i-8)))
		}
		b[2*i] = digits[by>>4]
		b[2*i+1] = digits[by&0xf]
	}
	return string(b[:])
}

// Hasher streams arbitrary bytes into a 128-bit Fingerprint with the
// mix64 permutation the group keys use — the generalization that lets
// content keys cover canonical IR text, pipeline specs and config
// strings, not just hash-consed node ids. It implements io.Writer and
// never returns an error.
type Hasher struct {
	hi, lo uint64
	buf    [8]byte
	nbuf   int
	total  uint64
}

// NewHasher returns an empty hasher.
func NewHasher() *Hasher {
	return &Hasher{hi: 0x9e3779b97f4a7c15, lo: 0xc2b2ae3d27d4eb4f}
}

func (h *Hasher) word(w uint64) {
	x := mix64(w)
	h.hi = mix64(h.hi ^ x)
	h.lo = h.lo*0x100000001b3 + x
}

// Write absorbs p; the digest depends on the exact byte stream (and its
// length), not on how it was chunked across calls.
func (h *Hasher) Write(p []byte) (int, error) {
	h.total += uint64(len(p))
	n := len(p)
	for len(p) > 0 {
		if h.nbuf == 0 && len(p) >= 8 {
			w := uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
				uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
			h.word(w)
			p = p[8:]
			continue
		}
		k := copy(h.buf[h.nbuf:], p)
		h.nbuf += k
		p = p[k:]
		if h.nbuf == 8 {
			w := uint64(h.buf[0]) | uint64(h.buf[1])<<8 | uint64(h.buf[2])<<16 | uint64(h.buf[3])<<24 |
				uint64(h.buf[4])<<32 | uint64(h.buf[5])<<40 | uint64(h.buf[6])<<48 | uint64(h.buf[7])<<56
			h.word(w)
			h.nbuf = 0
		}
	}
	return n, nil
}

// WriteString is Write for strings, avoiding a conversion allocation at
// call sites.
func (h *Hasher) WriteString(s string) {
	var tmp [64]byte
	for len(s) > 0 {
		n := copy(tmp[:], s)
		h.Write(tmp[:n])
		s = s[n:]
	}
}

// WriteUint64 absorbs v as its 8 little-endian bytes.
func (h *Hasher) WriteUint64(v uint64) {
	h.total += 8
	if h.nbuf == 0 {
		h.word(v)
		return
	}
	// The k buffered bytes and v's low 8-k complete a word; v's high k
	// stay buffered.
	k := uint(h.nbuf)
	var w uint64
	for i := uint(0); i < k; i++ {
		w |= uint64(h.buf[i]) << (8 * i)
	}
	h.word(w | v<<(8*k))
	v >>= 64 - 8*k
	for i := uint(0); i < k; i++ {
		h.buf[i] = byte(v >> (8 * i))
	}
}

// Sum finalizes the digest over everything written so far. The hasher
// remains usable; further writes extend the stream.
func (h *Hasher) Sum() Fingerprint {
	hi, lo, buf, nbuf := h.hi, h.lo, h.buf, h.nbuf
	if nbuf > 0 {
		var w uint64
		for i := 0; i < nbuf; i++ {
			w |= uint64(buf[i]) << (8 * uint(i))
		}
		x := mix64(w ^ 0xa5a5a5a5a5a5a5a5)
		hi = mix64(hi ^ x)
		lo = lo*0x100000001b3 + x
	}
	// Length finalization: streams that differ only in trailing zero
	// padding or chunk boundaries stay distinct.
	x := mix64(h.total)
	return Fingerprint{hi: mix64(hi ^ x), lo: lo*0x100000001b3 + x}
}
