package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes a re-executed test binary run main() instead of the
// tests, so each test drives the real command as a child process.
const runMainEnv = "HTC_EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// htcExperiments runs the command with args and returns its stdout,
// stderr and exit code.
func htcExperiments(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

func TestConfigMustNotSetFlagOwnedFields(t *testing.T) {
	for _, config := range []string{`{"seed":3}`, `{"epochs":5}`, `{"variant":"HTC-L"}`} {
		_, stderr, code := htcExperiments(t, "-run", "table1", "-config", config)
		if code != 1 || !strings.Contains(stderr, "-seed") {
			t.Errorf("-config %s: exit %d, stderr %q; want exit 1 naming -seed", config, code, stderr)
		}
	}
}

func TestCustomRunTakesConfig(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	out, stderr, code := htcExperiments(t,
		"-source", write("s.edges", "a b\na c\nb c\nc d\nd e\ne f\nf g\ng h\nh i\ni j\nd g\nb e\n"),
		"-target", write("t.edges", "x2 x1\nx1 x3\nx2 x3\nx3 x4\nx4 x5\nx5 x6\nx6 x7\nx7 x8\nx8 x9\nx9 x10\nx4 x7\nx2 x5\n"),
		"-truth", write("truth.tsv", "a x1\nb x2\nc x3\nd x4\ne x5\nf x6\ng x7\nh x8\ni x9\nj x10\n"),
		"-config", `{"hidden":8,"embed":4,"m":5}`, "-epochs", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rows []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "HTC") {
			rows = append(rows, strings.Fields(l)[0])
		}
	}
	if got, want := strings.Join(rows, " "), "HTC-L HTC-H HTC-LT HTC-DT HTC-B HTC"; got != want {
		t.Fatalf("roster rows %q, want %q:\n%s", got, want, out)
	}
}
