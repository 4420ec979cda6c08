package solver

import "testing"

// TestHasherWriteUint64MatchesWrite: WriteUint64 absorbs exactly the 8
// little-endian bytes Write would, at every alignment of what is
// already buffered.
func TestHasherWriteUint64MatchesWrite(t *testing.T) {
	const v = 0x0102030405060708
	le := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	for lead := 0; lead < 17; lead++ {
		prefix := make([]byte, lead)
		for i := range prefix {
			prefix[i] = byte(0xa0 + i)
		}
		a, b := NewHasher(), NewHasher()
		a.Write(prefix)
		a.WriteUint64(v)
		a.WriteString("tail")
		b.Write(prefix)
		b.Write(le)
		b.WriteString("tail")
		if a.Sum() != b.Sum() {
			t.Errorf("after %d bytes: WriteUint64 digests %s, Write of its bytes %s", lead, a.Sum().Hex(), b.Sum().Hex())
		}
	}
}
