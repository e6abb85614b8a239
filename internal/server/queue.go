package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// JobStatus is the lifecycle state of a queued alignment.
type JobStatus string

// The job lifecycle: queued → running → done | failed | cancelled.
// Cancellation can also strike while still queued.
const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
)

// ErrQueueFull reports that the submission backlog is at capacity; the
// HTTP layer maps it to 429.
var ErrQueueFull = errors.New("server: job queue is full")

// ErrQueueClosed reports a submission after shutdown began.
var ErrQueueClosed = errors.New("server: job queue is closed")

// Job is one alignment submission moving through the queue: an align
// job is a sweep of one entry. All mutable state is guarded by mu; Info
// snapshots it for serialisation.
type Job struct {
	ID string
	// Req is the admitted request, its entries and their result-cache
	// keys resolved.
	Req *AlignRequest

	ctx    context.Context
	cancel context.CancelFunc

	// enqSeq orders jobs by submission for queue-position reporting.
	enqSeq uint64

	mu        sync.Mutex
	status    JobStatus
	err       error
	result    any // *AlignResult or *SweepResult
	progress  *ProgressInfo
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Cancel requests cooperative cancellation. A queued job is marked
// cancelled immediately (the worker that later pops it skips it); a
// running job's context is cancelled and the pipeline aborts at its next
// check. Finished jobs are unaffected.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.status == StatusQueued {
		j.status = StatusCancelled
		j.finished = time.Now()
	}
	j.mu.Unlock()
	j.cancel()
}

// SetProgress publishes a running job's live pipeline progress; poll
// responses mirror the latest value. Updates after the job left the
// running state are dropped (a cancelled pipeline may still emit a few
// trailing events).
func (j *Job) SetProgress(p ProgressInfo) {
	j.mu.Lock()
	if j.status == StatusRunning {
		j.progress = &p
	}
	j.mu.Unlock()
}

// Info snapshots the job for the API.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{ID: j.ID, Status: j.status, SubmittedAt: j.submitted}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		info.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.FinishedAt = &t
	}
	if j.status == StatusRunning && j.progress != nil {
		p := *j.progress
		info.Progress = &p
	}
	if j.status == StatusDone {
		switch r := j.result.(type) {
		case *AlignResult:
			info.Result = r
		case *SweepResult:
			info.Sweep = r
		}
	}
	return info
}

// Runner executes one job's alignment; the queue retains the returned
// result (an *AlignResult or *SweepResult) on success. A Runner must
// honour ctx promptly — that is what frees the worker when a client
// abandons its job.
type Runner func(ctx context.Context, job *Job) (any, error)

// Queue is a bounded in-process job queue drained by a fixed worker
// pool. Finished job records are retained (capped) so clients can poll
// results after completion.
type Queue struct {
	runner  Runner
	metrics *Metrics
	log     *log.Logger
	ch      chan *Job
	workers int

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	seq atomic.Uint64
	enq atomic.Uint64

	mu         sync.Mutex
	closed     bool
	jobs       map[string]*Job
	finished   []string // finish order, for record eviction
	maxRecords int
}

// NewQueue starts a queue with the given worker count and backlog depth.
// runner executes each job; metrics may be nil, and so may logger, which
// receives a line for each failed job and the stack of a job whose
// runner panicked.
func NewQueue(workers, depth int, runner Runner, metrics *Metrics, logger *log.Logger) *Queue {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 2 * workers
	}
	if metrics == nil {
		metrics = &Metrics{}
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		runner:  runner,
		metrics: metrics,
		log:     logger,
		ch:      make(chan *Job, depth),
		workers: workers,
		baseCtx: ctx, baseCancel: cancel,
		jobs:       make(map[string]*Job),
		maxRecords: 1024,
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.work()
	}
	return q
}

// Workers returns the size of the worker pool.
func (q *Queue) Workers() int { return q.workers }

// Depth returns (queued-but-unclaimed jobs, backlog capacity).
func (q *Queue) Depth() (int, int) { return len(q.ch), cap(q.ch) }

func (q *Queue) newID() string {
	var buf [4]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// Fall back to the sequence alone; IDs stay unique in-process.
		return fmt.Sprintf("job-%06d", q.seq.Add(1))
	}
	return fmt.Sprintf("job-%06d-%s", q.seq.Add(1), hex.EncodeToString(buf[:]))
}

// Submit enqueues an admitted request, whose entries the runner probes in
// the result cache again when the job starts, and returns the job with a
// snapshot of it as admitted: queued, at its queue position. The snapshot
// is taken before the job enters the backlog, so a worker that claims it
// at once cannot change it. Submit never blocks: when the backlog is full
// it fails with ErrQueueFull.
func (q *Queue) Submit(req *AlignRequest) (*Job, JobInfo, error) {
	ctx, cancel := context.WithCancel(q.baseCtx)
	job := &Job{
		ID: q.newID(), Req: req,
		ctx: ctx, cancel: cancel,
		enqSeq: q.enq.Add(1),
		status: StatusQueued, submitted: time.Now(),
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		cancel()
		return nil, JobInfo{}, ErrQueueClosed
	}
	q.jobs[job.ID] = job
	q.mu.Unlock()
	info := job.Info()
	info.QueuePosition = q.Position(job)

	select {
	case q.ch <- job:
		q.metrics.JobsSubmitted.Add(1)
		return job, info, nil
	default:
		q.mu.Lock()
		delete(q.jobs, job.ID)
		q.mu.Unlock()
		cancel()
		q.metrics.JobsRejected.Add(1)
		return nil, JobInfo{}, ErrQueueFull
	}
}

// Record registers an already-finished job — the path of a submission
// whose every entry the result cache holds, so that polling works
// uniformly for cached submissions. res is an *AlignResult or
// *SweepResult.
func (q *Queue) Record(req *AlignRequest, res any) *Job {
	ctx, cancel := context.WithCancel(q.baseCtx)
	cancel()
	now := time.Now()
	job := &Job{
		ID: q.newID(), Req: req,
		ctx: ctx, cancel: func() {},
		status: StatusDone, result: res,
		submitted: now, started: now, finished: now,
	}
	q.mu.Lock()
	if !q.closed {
		q.jobs[job.ID] = job
		q.finished = append(q.finished, job.ID)
		q.evictLocked()
	}
	q.mu.Unlock()
	return job
}

// Get returns the job with the given id.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.jobs[id]
	return job, ok
}

// Position reports a queued job's 1-based place in line: one more than
// the number of still-queued jobs submitted before it. Jobs cancelled
// while waiting drop out of everyone's count immediately (the worker
// that eventually pops them skips them in microseconds). Returns 0 for
// jobs that are no longer queued. The answer is a snapshot — by the time
// the client reads it the queue may have moved — which is exactly what a
// "waiting behind N others" poll wants.
func (q *Queue) Position(job *Job) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	job.mu.Lock()
	seq, queued := job.enqSeq, job.status == StatusQueued
	job.mu.Unlock()
	if !queued {
		return 0
	}
	pos := 1
	for _, other := range q.jobs {
		if other == job {
			continue
		}
		other.mu.Lock()
		if other.status == StatusQueued && other.enqSeq < seq {
			pos++
		}
		other.mu.Unlock()
	}
	return pos
}

// Len returns the number of retained job records.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// Close stops accepting submissions, cancels every outstanding job and
// waits for the workers to drain.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	q.mu.Unlock()
	q.baseCancel()
	q.wg.Wait()
}

func (q *Queue) work() {
	defer q.wg.Done()
	for {
		select {
		case <-q.baseCtx.Done():
			return
		case job := <-q.ch:
			q.run(job)
		}
	}
}

func (q *Queue) run(job *Job) {
	job.mu.Lock()
	if job.status != StatusQueued { // cancelled while waiting
		job.mu.Unlock()
		q.metrics.JobsCancelled.Add(1)
		q.recordFinished(job)
		return
	}
	job.status = StatusRunning
	job.started = time.Now()
	job.mu.Unlock()

	q.metrics.JobsRunning.Add(1)
	res, err := q.runGuarded(job)
	q.metrics.JobsRunning.Add(-1)
	cancelled := err != nil && (errors.Is(err, context.Canceled) || job.ctx.Err() != nil)
	if err != nil && !cancelled {
		// Logged before the status shows, and outside the job's lock,
		// since the logger writes to the caller's writer.
		q.log.Printf("job %s failed: %v", job.ID, err)
	}

	job.mu.Lock()
	job.finished = time.Now()
	switch {
	case cancelled:
		job.status = StatusCancelled
		job.err = context.Canceled
		q.metrics.JobsCancelled.Add(1)
	case err != nil:
		job.status = StatusFailed
		job.err = err
		q.metrics.JobsFailed.Add(1)
	default:
		job.status = StatusDone
		job.result = res
		q.metrics.JobsCompleted.Add(1)
	}
	job.mu.Unlock()
	job.cancel() // release the context's resources
	q.recordFinished(job)
}

// runGuarded runs the runner on one job and turns a panic into that
// job's error, so one bad job fails alone instead of taking down the
// process with every queued job and cache. The stack goes to the log.
func (q *Queue) runGuarded(job *Job) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := make([]byte, 64<<10)
			q.log.Printf("job %s panicked: %v\n%s", job.ID, r, stack[:runtime.Stack(stack, false)])
			err = fmt.Errorf("internal error: %v", r)
		}
	}()
	return q.runner(job.ctx, job)
}

// recordFinished appends the job to the finish log and evicts the oldest
// finished records beyond the retention cap.
func (q *Queue) recordFinished(job *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, tracked := q.jobs[job.ID]; tracked {
		q.finished = append(q.finished, job.ID)
		q.evictLocked()
	}
}

func (q *Queue) evictLocked() {
	for len(q.finished) > q.maxRecords {
		delete(q.jobs, q.finished[0])
		q.finished = q.finished[1:]
	}
}
