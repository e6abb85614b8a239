package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/server"
)

// runMainEnv makes a re-executed test binary run main() instead of the
// tests, so each test drives the real command as a child process.
const runMainEnv = "HTC_ALIGN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A 10-node SNAP-style edge-list pair keyed by unrelated ids, with
// ID-keyed truth.
const (
	pairSource = "a b\na c\nb c\nc d\nd e\ne f\nf g\ng h\nh i\ni j\nd g\nb e\n"
	pairTarget = "x2 x1\nx1 x3\nx2 x3\nx3 x4\nx4 x5\nx5 x6\nx6 x7\nx7 x8\nx8 x9\nx9 x10\nx4 x7\nx2 x5\n"
	pairTruth  = "a x1\nb x2\nc x3\nd x4\ne x5\nf x6\ng x7\nh x8\ni x9\nj x10\n"

	// smallConfig keeps every run well under a second.
	smallConfig = `{"epochs":3,"hidden":8,"embed":4,"m":5}`
)

// writeFile writes data into the test's temporary directory.
func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// htcAlign runs the command on the fixture pair with truth plus args and
// returns its stdout, stderr and exit code.
func htcAlign(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	args = append([]string{
		"-source", writeFile(t, "s.edges", pairSource),
		"-target", writeFile(t, "t.edges", pairTarget),
		"-truth", writeFile(t, "truth.tsv", pairTruth),
	}, args...)
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

// deterministic drops the output lines that carry wall-clock times.
func deterministic(out string) string {
	var kept []string
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "# timings:") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "\n")
}

func TestConfigInlineAndFileAgree(t *testing.T) {
	config := `{"variant":"HTC-LT","epochs":3,"hidden":8,"embed":4,"m":5}`
	inline, stderr, code := htcAlign(t, "-config", config)
	if code != 0 {
		t.Fatalf("inline config: exit %d: %s", code, stderr)
	}
	file, stderr, code := htcAlign(t, "-config", "@"+writeFile(t, "config.json", config))
	if code != 0 {
		t.Fatalf("@file config: exit %d: %s", code, stderr)
	}
	want := deterministic(inline)
	if !strings.Contains(want, "\nj x") || !strings.Contains(want, "\n# evaluation: ") {
		t.Fatalf("inline run printed no predictions or evaluation:\n%s", inline)
	}
	if got := deterministic(file); got != want {
		t.Fatalf("@file run printed\n%s\nwant the inline run's\n%s", got, want)
	}
}

func TestVariantSelection(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string // the variant of each "# aligned" section, in order
	}{
		{"list", []string{"-variant", "HTC-L,HTC-LT", "-config", smallConfig}, []string{"HTC-L", "HTC-LT"}},
		{"config", []string{"-config", `{"variant":"HTC-LT","epochs":3,"hidden":8,"embed":4,"m":5}`}, []string{"HTC-LT"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, stderr, code := htcAlign(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			// Each section opens "# aligned … (HTC-L, sim=…)".
			var got []string
			for _, l := range strings.Split(out, "\n") {
				if v, ok := strings.CutPrefix(l, "# aligned "); ok {
					got = append(got, v[strings.LastIndex(v, "(")+1:strings.Index(v, ", sim=")])
				}
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("sections ran %v, want %v:\n%s", got, tc.want, out)
			}
		})
	}
}

// TestRefinedTopKPrintsDenseLines: with refinement on, the topk backend
// at k = n prints the dense run's lines, both the predictions and, under
// -top, every candidate row in its Scan order, since a refined candidate
// row is kept best-first as a dense row's Scan visits it.
func TestRefinedTopKPrintsDenseLines(t *testing.T) {
	const config = `{"variant":"HTC-LT","epochs":3,"hidden":8,"embed":4,"m":5,"refine_iters":3%s}`
	for _, args := range [][]string{nil, {"-top", "10"}} {
		var lines [2]string
		for i, sim := range []string{"", `,"similarity":"topk","candidate_k":10`} {
			out, stderr, code := htcAlign(t, append([]string{"-config", fmt.Sprintf(config, sim)}, args...)...)
			if code != 0 {
				t.Fatalf("%v %s: exit %d: %s", args, sim, code, stderr)
			}
			if !strings.Contains(out, "# refine: iters=3") {
				t.Fatalf("%v %s: no refinement ran:\n%s", args, sim, out)
			}
			for _, l := range strings.Split(out, "\n") {
				if l != "" && !strings.HasPrefix(l, "#") {
					lines[i] += l + "\n"
				}
			}
		}
		if strings.Count(lines[0], "\n") != 10 {
			t.Fatalf("%v: dense run printed\n%s\nwant one line per source node", args, lines[0])
		}
		if lines[1] != lines[0] {
			t.Fatalf("%v: topk at k = n printed\n%s\nwant the dense run's\n%s", args, lines[1], lines[0])
		}
	}
}

// TestConfigRejectedLikeServer feeds each bad document to the command and,
// as the "config" of a request for the same pair, to POST /v1/align: both
// must refuse it, the command exiting 1 with the decoder's or core's
// message and the server answering 400 with the same cause.
func TestConfigRejectedLikeServer(t *testing.T) {
	s := server.New(server.Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	upload, err := json.Marshal(map[string]string{"format": "edgelist", "source": pairSource, "target": pairTarget})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/pair", strings.NewReader(string(upload)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("dataset upload: %d", resp.StatusCode)
	}

	for _, tc := range []struct{ name, config, cause string }{
		{"unknown field", `{"epochs":3,"bogus":1}`, `unknown field "bogus"`},
		{"trailing brace", `{"epochs":3}}`, "trailing data"},
		// 10×10 resolves to the dense backend, which scores every pair.
		{"ignored knob", `{"candidate_k":16}`, core.ErrIgnoredSimKnob.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := htcAlign(t, "-config", tc.config)
			if code != 1 || !strings.Contains(stderr, tc.cause) {
				t.Errorf("htc-align exit %d, stderr %q; want exit 1 naming %q", code, stderr, tc.cause)
			}
			resp, err := http.Post(ts.URL+"/v1/align", "application/json",
				strings.NewReader(`{"dataset":"pair","config":`+tc.config+`}`))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body server.ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if msg := body.Error.Message; resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, tc.cause) {
				t.Errorf("server %d %q; want 400 naming %q", resp.StatusCode, msg, tc.cause)
			}
		})
	}
}

func TestVariantFlagAndConfigVariantConflict(t *testing.T) {
	_, stderr, code := htcAlign(t, "-variant", "HTC-L", "-config", `{"variant":"HTC-LT"}`)
	if code != 1 || !strings.Contains(stderr, "set one or the other") {
		t.Fatalf("exit %d, stderr %q; want exit 1 refusing both variant spellings", code, stderr)
	}
}
