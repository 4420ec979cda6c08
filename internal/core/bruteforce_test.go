package core_test

import (
	"bytes"
	"errors"
	"testing"

	"overify/internal/core"
	"overify/internal/coreutils"
	"overify/internal/interp"
	"overify/internal/pipeline"
)

// TestRepricedModulesMatchO0Exhaustively: the programs whose -OVERIFY
// module changed when if-conversion began pricing its sites run, on the
// reference interpreter, exactly as their -O0 module does on every
// input of up to two bytes: the same output bytes, return value and
// trap kind. It is the concrete half of the claim that a kept branch
// changes verification work and nothing a user can observe.
func TestRepricedModulesMatchO0Exhaustively(t *testing.T) {
	inputs := [][]byte{{}}
	for a := 0; a < 256; a++ {
		inputs = append(inputs, []byte{byte(a)})
		for b := 0; b < 256; b++ {
			inputs = append(inputs, []byte{byte(a), byte(b)})
		}
	}
	if testing.Short() {
		inputs = inputs[:1+257*8]
	}
	type outcome struct {
		exit int64
		out  []byte
		trap interp.TrapKind
	}
	run := func(t *testing.T, c *core.Compiled, in []byte) outcome {
		rr, err := c.Run("umain", in)
		var tr *interp.Trap
		switch {
		case err == nil:
			return outcome{exit: rr.Exit, out: rr.Output}
		case errors.As(err, &tr):
			return outcome{trap: tr.Kind}
		}
		t.Fatalf("%s on %q: %v", c.Level, in, err)
		return outcome{}
	}
	for _, name := range []string{"cat-n", "nl", "pr", "stat", "tac"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, _ := coreutils.Get(name)
			var cs [2]*core.Compiled
			for i, level := range []pipeline.Level{pipeline.O0, pipeline.OVerify} {
				c, err := core.CompileProgram(p, level)
				if err != nil {
					t.Fatal(err)
				}
				cs[i] = c
			}
			for _, in := range inputs {
				o0, ov := run(t, cs[0], in), run(t, cs[1], in)
				if o0.exit != ov.exit || !bytes.Equal(o0.out, ov.out) || o0.trap != ov.trap {
					t.Fatalf("on %q: -O0 returns %d, writes %q, traps %s; -OVERIFY %d, %q, %s",
						in, o0.exit, o0.out, o0.trap, ov.exit, ov.out, ov.trap)
				}
			}
		})
	}
}
