package serve

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/metrics"
)

// Admission control: queries run on a bounded worker pool (Workers
// slots) with a bounded wait queue (Queue slots). A request arriving
// with every slot busy and the queue full is shed immediately with
// 429 + Retry-After rather than buffered — under overload the service
// degrades to fast rejections, never to an unbounded pile of
// in-flight aggregations sharing one heap: it bounds how much of the
// lake can be in memory at once.
var (
	mInflight = metrics.GetGauge("serve.inflight")
	mQueuedG  = metrics.GetGauge("serve.queued")
	mShed     = metrics.GetCounter("serve.shed")
)

// errShed marks a request rejected by admission control (HTTP 429).
var errShed = errors.New("serve: shed by admission control")

// admission is the pool + queue.
type admission struct {
	sem    chan struct{} // capacity = worker slots
	queue  int64         // max waiters before shedding
	queued atomic.Int64
}

func newAdmission(workers, queue int) *admission {
	return &admission{sem: make(chan struct{}, workers), queue: int64(queue)}
}

// acquire claims a worker slot, waiting in the bounded queue when all
// slots are busy. It returns a release func on success; errShed when
// the queue is full; ctx.Err() when the caller gave up (client
// disconnect, shutdown) while queued.
func (a *admission) acquire(ctx context.Context) (func(), error) {
	select {
	case a.sem <- struct{}{}:
		return a.grant(), nil
	default:
	}
	if a.queued.Add(1) > a.queue {
		a.queued.Add(-1)
		mShed.Inc()
		return nil, errShed
	}
	mQueuedG.Add(1)
	defer func() { a.queued.Add(-1); mQueuedG.Add(-1) }()
	select {
	case a.sem <- struct{}{}:
		return a.grant(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (a *admission) grant() func() {
	mInflight.Add(1)
	return func() {
		<-a.sem
		mInflight.Add(-1)
	}
}
