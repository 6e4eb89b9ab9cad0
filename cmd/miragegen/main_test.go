package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// childArgsEnv carries the miragegen arguments (separated by \x1f) into the
// re-executed test binary, which then runs main with them.
const childArgsEnv = "MIRAGEGEN_TEST_ARGS"

// TestStreamOnlyFlagsNeedStream runs miragegen with each out-of-core flag
// but without -stream: every run must exit 1 naming the flag before any
// generation starts, leaving -out as it was. Without the refusal, -resume
// regenerates in memory and overwrites -out's committed CSVs.
func TestStreamOnlyFlagsNeedStream(t *testing.T) {
	if args := os.Getenv(childArgsEnv); args != "" {
		os.Args = append([]string{"miragegen"}, strings.Split(args, "\x1f")...)
		main()
		return
	}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-resume", []string{"-resume"}},
		{"-gzip", []string{"-gzip"}},
		{"-shard-rows", []string{"-shard-rows", "1000"}},
		{"-window-rows", []string{"-window-rows", "1000"}},
		{"-no-validate", []string{"-no-validate"}},
		{"-sink-retries", []string{"-sink-retries", "2"}},
		{"-retry-base", []string{"-retry-base", "1ms"}},
	} {
		dir := t.TempDir()
		committed := filepath.Join(dir, "lineorder.csv")
		if err := os.WriteFile(committed, []byte("committed\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-workload", "ssb", "-sf", "0.05", "-out", dir}, tc.args...)
		cmd := exec.Command(os.Args[0], "-test.run", "^TestStreamOnlyFlagsNeedStream$")
		cmd.Env = append(os.Environ(), childArgsEnv+"="+strings.Join(args, "\x1f"))
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s without -stream: err = %v, want exit status 1\n%s", tc.flag, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.flag) || strings.Contains(string(out), "scenario ") {
			t.Errorf("%s without -stream: want a refusal naming the flag before generation, got:\n%s", tc.flag, out)
		}
		if got, err := os.ReadFile(committed); err != nil || string(got) != "committed\n" {
			t.Errorf("%s without -stream: -out's lineorder.csv = %q, %v; want it untouched", tc.flag, got, err)
		}
	}
}
