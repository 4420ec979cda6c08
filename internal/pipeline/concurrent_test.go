package pipeline_test

import (
	"sync"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/pipeline"
)

// TestConcurrentCompilesMatchSerial: the passes' scratch tables are
// pooled and shared across compiles, so four goroutines compile the
// corpus at -O0, -O3 and -OVERIFY at once, each starting at a
// different program, and every module must print exactly as its serial
// compile does. Run it under -race: a table two compiles hold at once
// shows there.
func TestConcurrentCompilesMatchSerial(t *testing.T) {
	progs := equivalencePrograms(t)
	levels := []pipeline.Level{pipeline.O0, pipeline.O3, pipeline.OVerify}
	type cell struct {
		p     coreutils.Program
		level pipeline.Level
	}
	var cells []cell
	for _, p := range progs {
		for _, level := range levels {
			cells = append(cells, cell{p, level})
		}
	}
	compile := func(c cell) (string, error) {
		cfg := pipeline.LevelConfig(c.level)
		comp, err := core.CompileWithConfig(c.p.Name, c.p.Src, cfg, core.DefaultLibc(c.level))
		if err != nil {
			return "", err
		}
		return comp.Mod.String(), nil
	}
	serial := make([]string, len(cells))
	for i, c := range cells {
		text, err := compile(c)
		if err != nil {
			t.Fatalf("%s at %s: %v", c.p.Name, c.level, err)
		}
		serial[i] = text
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(cells))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range cells {
				i := (k + w*len(cells)/workers) % len(cells)
				c := cells[i]
				text, err := compile(c)
				switch {
				case err != nil:
					errs <- c.p.Name + " at " + c.level.String() + ": " + err.Error()
				case text != serial[i]:
					errs <- c.p.Name + " at " + c.level.String() + ": the concurrent compile printed different IR"
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
