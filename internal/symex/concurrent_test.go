package symex_test

import (
	"fmt"
	"sync"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
	"overify/internal/symex"
)

// TestConcurrentEnginesShareModule: coverage is per engine, not on the
// shared IR — two engines running one module at the same time (as the
// daemon runs concurrent jobs over one cached module and one Warm) each
// report a lone run's covered blocks, not the union of both runs'
// counts.
func TestConcurrentEnginesShareModule(t *testing.T) {
	p, ok := coreutils.Get("wc")
	if !ok {
		t.Fatal("no corpus program wc")
	}
	c, err := core.CompileProgram(p, pipeline.O0)
	if err != nil {
		t.Fatal(err)
	}
	serialEng := symex.NewEngine(c.Mod, symex.Options{})
	serial, err := serialEng.Run("umain", serialEng.InputArgs(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(serialEng.CoveredBlockNames())
	warm := symex.NewWarm()
	var wg sync.WaitGroup
	reps := make([]*symex.Report, 2)
	names := make([]string, 2)
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := symex.NewEngine(c.Mod, symex.Options{Warm: warm})
			rep, err := eng.Run("umain", eng.InputArgs(3), nil)
			if err != nil {
				t.Error(err)
				return
			}
			reps[i], names[i] = rep, fmt.Sprint(eng.CoveredBlockNames())
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		if rep.Stats.CoveredBlocks != serial.Stats.CoveredBlocks || names[i] != want {
			t.Errorf("engine %d: covered %d blocks %s, want the serial %d %s",
				i, rep.Stats.CoveredBlocks, names[i], serial.Stats.CoveredBlocks, want)
		}
	}
}
