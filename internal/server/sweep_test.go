package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postJSON submits a body to an arbitrary endpoint and decodes the
// JobInfo when the server accepted it.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, JobInfo) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	var info JobInfo
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(blob, &info); err != nil {
			t.Fatalf("decoding %s: %v", blob, err)
		}
	}
	return resp.StatusCode, info
}

// sweepBody is a 3-config sweep over a small synthetic pair: two
// orbit-based variants sharing one artifact build plus the low-order
// ablation.
func sweepBody(dataSeed int64) string {
	return fmt.Sprintf(`{"dataset":"synthetic","n":60,"data_seed":%d,
		"configs":[
			{"variant":"HTC","k":4,"epochs":3,"hidden":8,"embed":4,"m":5},
			{"variant":"HTC-H","k":4,"epochs":3,"hidden":8,"embed":4,"m":5},
			{"variant":"HTC-L","epochs":3,"hidden":8,"embed":4,"m":5}
		]}`, dataSeed)
}

func TestSweepEndToEnd(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	code, info := postJSON(t, ts, "/v1/sweep", sweepBody(41))
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit: %d, want 202", code)
	}
	done := waitFor(t, ts, info.ID, StatusDone)
	sweep := done.Sweep
	if sweep == nil {
		t.Fatal("done sweep job carries no sweep payload")
	}
	if done.Result != nil {
		t.Error("sweep jobs must not populate the single-config result field")
	}
	if len(sweep.Results) != 3 {
		t.Fatalf("sweep returned %d entries, want 3", len(sweep.Results))
	}
	if sweep.PairHash == "" {
		t.Error("sweep should report the shared pair hash")
	}
	if sweep.PreparedCached {
		t.Error("first job on a pair cannot hit the artifact cache")
	}
	for i, entry := range sweep.Results {
		if entry.Error != "" || entry.Result == nil {
			t.Fatalf("entry %d failed: %q", i, entry.Error)
		}
		if len(entry.Result.Pairs) == 0 {
			t.Errorf("entry %d has no matched pairs", i)
		}
		if entry.Result.Eval == nil {
			t.Errorf("entry %d missing evaluation against dataset truth", i)
		}
	}
	// Entries beyond the first share the sweep's prepared artifacts.
	if !sweep.Results[1].Result.PreparedCached {
		t.Error("second entry should report prepared-artifact reuse")
	}
	// The orbit-based entries must skip recounting: entry 1 (HTC-H shares
	// HTC's artifact family) reports (near-)zero build time.
	if ms := sweep.Results[1].Result.TimingsMS; ms.OrbitCounting > sweep.Results[0].Result.TimingsMS.OrbitCounting/2+1 {
		t.Errorf("HTC-H entry recounted orbits: %+v vs first entry %+v", ms, sweep.Results[0].Result.TimingsMS)
	}

	// Each entry landed in the single-config result cache: submitting one
	// of the configs to /v1/align is a cache hit (200).
	single := fmt.Sprintf(`{"dataset":"synthetic","n":60,"data_seed":%d,
		"config":{"variant":"HTC-H","k":4,"epochs":3,"hidden":8,"embed":4,"m":5}}`, 41)
	code, hit := submit(t, ts, single)
	if code != http.StatusOK {
		t.Fatalf("single submit after sweep: %d, want 200 cache hit", code)
	}
	if hit.Result == nil || !hit.Result.Cached {
		t.Fatalf("expected cached result, got %+v", hit)
	}

	// A repeat of the whole sweep is assembled from cache: immediate 200.
	code, again := postJSON(t, ts, "/v1/sweep", sweepBody(41))
	if code != http.StatusOK {
		t.Fatalf("repeat sweep: %d, want 200", code)
	}
	if again.Sweep == nil || len(again.Sweep.Results) != 3 {
		t.Fatalf("repeat sweep payload: %+v", again.Sweep)
	}
	for i, entry := range again.Sweep.Results {
		if entry.Result == nil || !entry.Result.Cached {
			t.Errorf("repeat sweep entry %d should be cache-served", i)
		}
	}

	// And a later single-config job on the same pair reuses the prepared
	// artifacts across jobs.
	other := fmt.Sprintf(`{"dataset":"synthetic","n":60,"data_seed":%d,
		"config":{"variant":"HTC","k":4,"epochs":5,"hidden":8,"embed":4,"m":5}}`, 41)
	code, info = submit(t, ts, other)
	if code != http.StatusAccepted {
		t.Fatalf("fresh config submit: %d, want 202", code)
	}
	fresh := waitFor(t, ts, info.ID, StatusDone)
	if fresh.Result == nil || !fresh.Result.PreparedCached {
		t.Error("job on a previously prepared pair should reuse its artifacts")
	}
}

// TestEntryTimingsAddUp holds every entry's timings to one clock: an
// align job and a three-config sweep, each on a pair no job prepared
// before, so their first entries build the orbit counts and Laplacians.
// Each entry's total must cover the sum of its six stage times.
func TestEntryTimingsAddUp(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	cfg := `{"variant":"HTC","k":13,"epochs":3,"hidden":8,"embed":4,"m":5}`
	bodies := map[string]string{
		"/v1/align": `{"dataset":"synthetic","n":300,"data_seed":3,"config":` + cfg + `}`,
		"/v1/sweep": `{"dataset":"synthetic","n":300,"data_seed":4,"configs":[` + cfg + `,
			{"variant":"HTC-H","k":13,"epochs":3,"hidden":8,"embed":4,"m":5},
			{"variant":"HTC-L","epochs":3,"hidden":8,"embed":4,"m":5}]}`,
	}
	for path, body := range bodies {
		code, info := postJSON(t, ts, path, body)
		if code != http.StatusAccepted {
			t.Fatalf("%s: %d, want 202", path, code)
		}
		done := waitFor(t, ts, info.ID, StatusDone)
		results := []*AlignResult{done.Result}
		if done.Sweep != nil {
			results = results[:0]
			for _, e := range done.Sweep.Results {
				results = append(results, e.Result)
			}
		}
		for i, res := range results {
			if res == nil || res.PreparedCached != (i > 0) {
				t.Fatalf("%s entry %d: %+v, want a fresh run (prepared_cached on later entries only)", path, i, res)
			}
			ms := res.TimingsMS
			stages := ms.OrbitCounting + ms.Laplacians + ms.Training + ms.FineTuning + ms.Integration + ms.Refinement
			if ms.Total < stages-1e-9 {
				t.Errorf("%s entry %d: total %.3f ms is below its stages' sum %.3f ms (%+v)", path, i, ms.Total, stages, ms)
			}
		}
	}
}

func TestSweepValidation(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"no configs", `{"dataset":"synthetic"}`},
		{"empty configs", `{"dataset":"synthetic","configs":[]}`},
		{"config and configs", `{"dataset":"synthetic","config":{"epochs":3},"configs":[{"epochs":3}]}`},
		{"bad variant inside configs", `{"dataset":"synthetic","configs":[{"variant":"HTC-XXL"}]}`},
		{"too many configs", fmt.Sprintf(`{"dataset":"synthetic","configs":[%s]}`,
			strings.TrimSuffix(strings.Repeat(`{"epochs":1},`, MaxSweepConfigs+1), ","))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _ := postJSON(t, ts, "/v1/sweep", tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("%s: got %d, want 400", tc.name, code)
			}
		})
	}
}

// TestQueuePosition pins the "waiting behind N others" contract: queued
// jobs report their place in line, and cancellations move the line up.
func TestQueuePosition(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})

	// Occupy the single worker indefinitely.
	slow := `{"dataset":"synthetic","n":150,
		"config":{"variant":"HTC-L","epochs":100000,"hidden":8,"embed":4}}`
	_, hog := submit(t, ts, slow)
	// Wait until the hog actually holds the worker, so the queue is empty
	// behind it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, info := getJob(t, ts, hog.ID); info.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hog job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var waiting []JobInfo
	for i := 0; i < 3; i++ {
		code, info := submit(t, ts, fastBody(int64(50+i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		if info.QueuePosition != i+1 {
			t.Errorf("submit response %d: queue_position = %d, want %d", i, info.QueuePosition, i+1)
		}
		waiting = append(waiting, info)
	}
	for i, info := range waiting {
		_, polled := getJob(t, ts, info.ID)
		if polled.Status != StatusQueued || polled.QueuePosition != i+1 {
			t.Errorf("job %d: status=%s position=%d, want queued at %d", i, polled.Status, polled.QueuePosition, i+1)
		}
	}

	// Cancelling the middle job promotes the one behind it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+waiting[1].ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, polled := getJob(t, ts, waiting[2].ID); polled.QueuePosition != 2 {
		t.Errorf("after cancelling the middle job: position = %d, want 2", polled.QueuePosition)
	}

	// Unblock the worker and let everything drain.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+hog.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	done := waitFor(t, ts, waiting[2].ID, StatusDone)
	if done.QueuePosition != 0 {
		t.Errorf("finished job still reports queue_position %d", done.QueuePosition)
	}
}

// TestJobProgress verifies a running job exposes a live progress block
// and that it disappears once the job reaches a terminal state.
func TestJobProgress(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	slow := `{"dataset":"synthetic","n":150,
		"config":{"variant":"HTC-L","epochs":100000,"hidden":8,"embed":4}}`
	code, info := submit(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	var progress *ProgressInfo
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, polled := getJob(t, ts, info.ID)
		if polled.Progress != nil && polled.Progress.Stage == "train" {
			progress = polled.Progress
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if progress == nil {
		t.Fatal("running job never reported training progress")
	}
	if progress.Total != 100000 || progress.Done < 1 {
		t.Errorf("unexpected training progress %+v", progress)
	}
	if progress.Config != 0 || progress.Configs != 0 {
		t.Errorf("single-config job should not report sweep coordinates: %+v", progress)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitFor(t, ts, info.ID, StatusCancelled)
	if final.Progress != nil {
		t.Error("terminal job should not carry a progress block")
	}
}

// TestSweepProgressCoordinates checks that sweep jobs locate their
// progress within the config list.
func TestSweepProgressCoordinates(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	body := `{"dataset":"synthetic","n":120,
		"configs":[{"variant":"HTC-L","epochs":100000,"hidden":8,"embed":4}]}`
	code, info := postJSON(t, ts, "/v1/sweep", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	var progress *ProgressInfo
	for time.Now().Before(deadline) {
		_, polled := getJob(t, ts, info.ID)
		if polled.Progress != nil {
			progress = polled.Progress
			if progress.Config == 1 && progress.Configs == 1 {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if progress == nil || progress.Config != 1 || progress.Configs != 1 {
		t.Fatalf("sweep progress coordinates: %+v, want config 1/1", progress)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, ts, info.ID, StatusCancelled)
}
