package symex

// NullObj is the object every null pointer names, for the external
// tests' structural checks of decoded states.
var NullObj = nullObj

// Globals returns the descriptors of e's module globals, by number.
func Globals(e *Engine) []*MemObject { return e.globals }

// TableCells returns the cells of every object st's table numbers, by
// number; a read-only global's slot is empty.
func TableCells(st *State) [][]SymVal {
	out := make([][]SymVal, st.nobj)
	for n := range out {
		for _, p := range st.at(int32(n)).pages {
			out[n] = append(out[n], p.cells...)
		}
	}
	return out
}

// Number returns writable object o's number in the table of a state
// that holds it.
func Number(o *MemObject) int { return int(o.num) }

// SetMaxStates lowers e's cap on queued states, for tests that evict.
func SetMaxStates(e *Engine, n int) { e.maxStates = n }
