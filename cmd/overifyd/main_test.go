package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNegativeLimitsExitTwo: a negative -verdict-cap or -max-jobs is a
// usage error (exit 2, the flag named on stderr) before any socket is
// opened; -verdict-cap -5 used to start an unbounded store. The test
// binary re-runs itself with overifyd's arguments after "--", and that
// child runs main.
func TestNegativeLimitsExitTwo(t *testing.T) {
	if args := flag.Args(); len(args) > 0 && args[0] == "overifyd" {
		os.Args = args
		flag.CommandLine = flag.NewFlagSet("overifyd", flag.ExitOnError)
		main()
		return
	}
	dir := t.TempDir()
	sock := filepath.Join(dir, "d.sock")
	for flagName, args := range map[string][]string{
		"-verdict-cap": {"-listen", sock, "-verdict-cache", filepath.Join(dir, "v"), "-verdict-cap", "-5"},
		"-max-jobs":    {"-listen", sock, "-max-jobs", "-1"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestNegativeLimitsExitTwo$", "--", "overifyd"}, args...)...)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), flagName) {
			t.Errorf("overifyd %v: %v, want exit status 2 naming %s\n%s", args, err, flagName, out)
		}
		if _, err := os.Stat(sock); err == nil {
			t.Errorf("overifyd %v opened its socket before refusing the flag", args)
		}
	}
}
