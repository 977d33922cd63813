package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for wrun: re-executed with
// WRUN_TEST_MAIN set, it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("WRUN_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSpecRuntimeFailureExitsOne: wrun -spec on a document whose run cannot
// finish prints the cause on one line and exits 1: no panic, no goroutine
// dump.
func TestSpecRuntimeFailureExitsOne(t *testing.T) {
	const specs = "../../internal/spec/"
	for _, c := range []struct {
		want string
		args []string
	}{
		{"past EOF", []string{"-spec", specs + "testdata/past-eof.yaml", "-nodes", "2"}},
		{"deadlock", []string{"-spec", specs + "testdata/stuck.yaml", "-nodes", "2"}},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "WRUN_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		msg := strings.TrimRight(stderr.String(), "\n")
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("wrun %v: %v, want exit status 1\n%s", c.args, err, msg)
		}
		if !strings.Contains(msg, c.want) || strings.Contains(msg, "\n") {
			t.Errorf("wrun %v printed %q, want one line saying %q", c.args, msg, c.want)
		}
	}
}
