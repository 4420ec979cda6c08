package verdicts

import "path/filepath"

// Len counts the entries on disk, which the store's tests hold to its
// cap; Stats().Entries counts its recency index.
func (s *Store) Len() int {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return 0
	}
	return len(matches)
}
