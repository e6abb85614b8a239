package server

import (
	"bytes"
	"context"
	"errors"
	"log"
	"testing"
	"time"
)

// blockingRunner blocks until the job's context is cancelled, unless the
// request is marked fast (Dataset "fast"), and reports each start on
// started.
func blockingRunner(started chan<- *Job) Runner {
	return func(ctx context.Context, job *Job) (any, error) {
		started <- job
		if job.Req.Dataset == "fast" {
			return &AlignResult{}, nil
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

func waitStatus(t *testing.T, job *Job, want JobStatus) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if job.Status() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", job.ID, job.Status(), want)
}

// TestCancelReleasesWorker proves the core serving property: cancelling a
// running job frees its worker for the next queued job.
func TestCancelReleasesWorker(t *testing.T) {
	started := make(chan *Job, 8)
	m := &Metrics{}
	q := NewQueue(1, 4, blockingRunner(started), m, nil)
	defer q.Close()

	hog, _, err := q.Submit(&AlignRequest{Dataset: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("hog job never started")
	}

	next, _, err := q.Submit(&AlignRequest{Dataset: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	// The single worker is occupied: next must not start yet.
	select {
	case j := <-started:
		t.Fatalf("job %s started while the worker was busy", j.ID)
	case <-time.After(50 * time.Millisecond):
	}

	hog.Cancel()
	waitStatus(t, hog, StatusCancelled)

	select {
	case <-started: // the released worker picked up `next`
	case <-time.After(5 * time.Second):
		t.Fatal("worker was not released by cancellation")
	}
	waitStatus(t, next, StatusDone)

	if got := m.JobsCancelled.Load(); got != 1 {
		t.Errorf("cancelled counter = %d, want 1", got)
	}
	if got := m.JobsCompleted.Load(); got != 1 {
		t.Errorf("completed counter = %d, want 1", got)
	}
}

func TestCancelWhileQueuedSkipsRun(t *testing.T) {
	started := make(chan *Job, 8)
	q := NewQueue(1, 4, blockingRunner(started), nil, nil)
	defer q.Close()

	hog, _, _ := q.Submit(&AlignRequest{Dataset: "slow"})
	<-started
	queued, _, _ := q.Submit(&AlignRequest{Dataset: "fast"})

	queued.Cancel()
	if queued.Status() != StatusCancelled {
		t.Fatalf("queued job should cancel instantly, got %s", queued.Status())
	}

	hog.Cancel()
	waitStatus(t, hog, StatusCancelled)
	// Give the worker a moment: it must skip the cancelled job, not run it.
	select {
	case j := <-started:
		t.Fatalf("cancelled job %s was started anyway", j.ID)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestSubmitAnswersAsAdmitted: Submit's snapshot is the job as admitted,
// queued at position 1 on an idle queue, even though the idle worker
// claims the job at once and may finish it before Submit returns.
func TestSubmitAnswersAsAdmitted(t *testing.T) {
	q := NewQueue(1, 4, func(ctx context.Context, job *Job) (any, error) {
		return &AlignResult{}, nil
	}, nil, nil)
	defer q.Close()
	for i := 0; i < 50; i++ {
		job, info, err := q.Submit(&AlignRequest{Dataset: "fast"})
		if err != nil {
			t.Fatal(err)
		}
		if info.ID != job.ID || info.Status != StatusQueued || info.QueuePosition != 1 {
			t.Fatalf("submit %d answered %+v, want job %s queued at position 1", i, info, job.ID)
		}
		waitStatus(t, job, StatusDone)
	}
}

func TestQueueFull(t *testing.T) {
	started := make(chan *Job, 8)
	q := NewQueue(1, 1, blockingRunner(started), nil, nil)
	defer q.Close()

	hog, _, _ := q.Submit(&AlignRequest{Dataset: "slow"})
	<-started // worker busy
	if _, _, err := q.Submit(&AlignRequest{Dataset: "slow"}); err != nil {
		t.Fatalf("backlog slot should accept: %v", err)
	}
	if _, _, err := q.Submit(&AlignRequest{Dataset: "slow"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	hog.Cancel()
}

func TestSubmitAfterClose(t *testing.T) {
	q := NewQueue(1, 1, func(ctx context.Context, job *Job) (any, error) {
		return &AlignResult{}, nil
	}, nil, nil)
	q.Close()
	if _, _, err := q.Submit(&AlignRequest{Dataset: "fast"}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("got %v, want ErrQueueClosed", err)
	}
}

func TestFailedJobReportsError(t *testing.T) {
	boom := errors.New("boom")
	q := NewQueue(1, 1, func(ctx context.Context, job *Job) (any, error) {
		return nil, boom
	}, nil, nil)
	defer q.Close()

	job, _, _ := q.Submit(&AlignRequest{Dataset: "x"})
	waitStatus(t, job, StatusFailed)
	info := job.Info()
	if info.Error != "boom" || info.Result != nil {
		t.Errorf("unexpected failed info: %+v", info)
	}
}

// TestFailedJobLogsLine: a job whose runner returns an error leaves a
// "job <id> failed: <err>" line in the queue's log; a cancelled job
// leaves none.
func TestFailedJobLogsLine(t *testing.T) {
	var logBuf bytes.Buffer
	started := make(chan *Job, 1)
	q := NewQueue(1, 2, func(ctx context.Context, job *Job) (any, error) {
		if job.Req.Dataset == "bad" {
			return nil, errors.New("boom")
		}
		return blockingRunner(started)(ctx, job)
	}, nil, log.New(&logBuf, "", 0))
	defer q.Close()

	bad, _, _ := q.Submit(&AlignRequest{Dataset: "bad"})
	waitStatus(t, bad, StatusFailed)
	hog, _, _ := q.Submit(&AlignRequest{Dataset: "x"})
	<-started
	hog.Cancel()
	waitStatus(t, hog, StatusCancelled)

	if want := "job " + bad.ID + " failed: boom\n"; logBuf.String() != want {
		t.Errorf("log %q, want %q", logBuf.String(), want)
	}
}

func TestRecordEviction(t *testing.T) {
	q := NewQueue(1, 1, func(ctx context.Context, job *Job) (any, error) {
		return &AlignResult{}, nil
	}, nil, nil)
	defer q.Close()
	q.maxRecords = 3

	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		job := q.Record(&AlignRequest{}, &AlignResult{Cached: true})
		ids = append(ids, job.ID)
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("retained %d records, want 3", got)
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Error("oldest record should be evicted")
	}
	if _, ok := q.Get(ids[5]); !ok {
		t.Error("newest record should be retained")
	}
}
