package service

import (
	"context"
	"errors"
	"time"

	emogi "repro"
	"repro/internal/telemetry"
)

// Request coalescing: when Config.BatchWindow is set, cache-missing
// requests for the same (dataset, algo, variant, transport policy) that arrive
// within the window are collected into one pending batch and dispatched
// as a single System.DoBatch — one admission-queue slot, one engine run,
// one edge scan serving every lane (see internal/core/batch.go and
// DESIGN.md §13). The batch seals when the window elapses or when it
// reaches Config.BatchMax lanes, whichever comes first.
//
// Per-request semantics are preserved exactly:
//
//   - Each waiter gets the bit-for-bit Result an uncoalesced run would
//     return (Values/Iterations; Elapsed/Stats describe the shared run).
//   - A request's context detaches only its own lane — mid-batch
//     cancellation never aborts the other lanes or frees shared buffers
//     early; the lane just leaves the live mask at the next round
//     boundary.
//   - Duplicate sources inside one window share a lane: the lane's
//     result is delivered to every waiter (cloned, so no waiter observes
//     another's mutations), and the lane detaches only when every waiter
//     has canceled.
//   - Cache fills are per-lane on completion, with the same
//     degraded-results-are-never-cached rule as single runs: a batch
//     that fell back to UVM caches nothing, and a mixed batch (some
//     lanes canceled) caches only the lanes that completed cleanly.

// batchKey groups coalescable requests. Sources are intentionally
// absent: differing sources are the point of batching. The algo name and
// variant are the cache-normalized ones, and policy is the effective
// transport-policy name, so requests that would share a cache entry also
// share a lane (and requests under different policies never coalesce).
type batchKey struct {
	dataset string
	algo    string
	variant emogi.Variant
	policy  string
}

// batchWaiter is one caller blocked in Do waiting for its lane.
type batchWaiter struct {
	ctx  context.Context
	done chan taskResult // buffered: delivery never blocks

	// trace is the waiter's own request trace; joined is when it entered
	// the pending batch. runBatch replays the batch's shared spans into
	// every waiter's trace, plus a per-waiter coalesce span covering
	// joined -> dispatch.
	trace  *telemetry.RequestTrace
	joined time.Time
}

// pendingLane is one distinct source inside a pending batch.
type pendingLane struct {
	src      int
	key      cacheKey
	cachable bool
	waiters  []*batchWaiter
}

// pendingBatch collects same-key requests until it seals.
type pendingBatch struct {
	key        batchKey
	dg         *emogi.DeviceGraph
	pol        emogi.TransportPolicy // shared per-request override, nil = dataset's
	variant    emogi.Variant
	lanes      []*pendingLane
	bySrc      map[int]*pendingLane
	timer      *time.Timer
	sealed     bool
	dispatched time.Time // when the sealed batch entered admission
}

// doBatched joins (or opens) the pending batch for the request's key and
// blocks until the batch delivers. Callers have already missed the
// cache and validated the dataset and algorithm.
func (s *Service) doBatched(ctx context.Context, req Request, dg *emogi.DeviceGraph, pol emogi.TransportPolicy, key cacheKey, rt *telemetry.RequestTrace) (*emogi.Result, error) {
	w := &batchWaiter{ctx: ctx, done: make(chan taskResult, 1), trace: rt, joined: time.Now()}
	bkey := batchKey{dataset: req.Dataset, algo: key.algo, variant: key.variant, policy: key.policy}
	s.bmu.Lock()
	b := s.pending[bkey]
	if b == nil {
		b = &pendingBatch{
			key:     bkey,
			dg:      dg,
			pol:     pol,
			variant: key.variant,
			bySrc:   make(map[int]*pendingLane),
		}
		s.pending[bkey] = b
		// The window timer seals the batch with whatever joined by then.
		b.timer = time.AfterFunc(s.cfg.BatchWindow, func() { s.sealBatch(b) })
	}
	ln := b.bySrc[key.src]
	if ln == nil {
		ln = &pendingLane{src: key.src, key: key, cachable: s.cache != nil}
		b.bySrc[key.src] = ln
		b.lanes = append(b.lanes, ln)
	}
	ln.waiters = append(ln.waiters, w)
	// A full batch seals immediately instead of waiting out the window.
	sealNow := !b.sealed && len(b.lanes) >= s.cfg.BatchMax
	if sealNow {
		b.sealed = true
		delete(s.pending, bkey)
	}
	s.bmu.Unlock()
	if sealNow {
		b.timer.Stop()
		s.dispatchBatch(b)
	}
	r := <-w.done
	s.finishRequest(rt, req, requestOutcome{
		outcome:  outcomeOf(r.err),
		res:      r.res,
		err:      r.err,
		executed: r.executed,
		retries:  r.retries,
		faults:   r.faults,
		batched:  r.batched,
		lanes:    r.lanes,
	})
	return r.res, r.err
}

// sealBatch is the window-timer path: mark the batch sealed, detach it
// from the pending map, and dispatch it. A batch already sealed (by
// reaching BatchMax, or by Close) is someone else's to dispatch.
func (s *Service) sealBatch(b *pendingBatch) {
	s.bmu.Lock()
	if b.sealed {
		s.bmu.Unlock()
		return
	}
	b.sealed = true
	delete(s.pending, b.key)
	s.bmu.Unlock()
	s.dispatchBatch(b)
}

// dispatchBatch admits a sealed batch to the worker queue as one task —
// a K-lane batch occupies a single admission slot, which is exactly the
// load-shedding win coalescing buys. Rejection (queue full, service
// stopped) fails every waiter the way a single request is failed.
func (s *Service) dispatchBatch(b *pendingBatch) {
	b.dispatched = time.Now()
	t := &task{
		ctx: context.Background(),
		req: Request{Dataset: b.key.dataset, Algo: b.key.algo, Variant: b.variant},
		dg:  b.dg,
		// key feeds retry-backoff jitter; lane 0's is as good as any.
		key:      b.lanes[0].key,
		batch:    b,
		enqueued: b.dispatched,
		// The batch collects its shared lifecycle spans (queue, backoff,
		// execute, degrade) and round events on its own trace; runBatch
		// replays them into every waiter's.
		trace: telemetry.NewRequestTrace(telemetry.NewTraceID()),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.failBatch(b, ErrStopped, outcomeRejected)
		return
	}
	select {
	case s.queue <- t:
		s.met.queued.Set(float64(len(s.queue)))
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.failBatch(b, ErrOverloaded, outcomeRejected)
	}
}

// failBatch delivers one error to every waiter of every lane.
func (s *Service) failBatch(b *pendingBatch, err error, outcome string) {
	for _, ln := range b.lanes {
		for _, w := range ln.waiters {
			s.met.outcome(outcome)
			w.done <- taskResult{err: err}
		}
	}
}

// runBatch executes one admitted batch on a worker and delivers per-lane
// results, cache fills, and metrics. The batch's shared lifecycle spans
// and round events — collected on the task's batch-scoped trace — are
// replayed into every waiter's trace, preceded by a per-waiter coalesce
// span, so each request's record reads like it ran alone.
func (s *Service) runBatch(t *task) {
	b := t.batch
	s.met.inflight.Set(float64(s.inflight.Add(1)))
	start := time.Now()
	out, err := s.executeBatch(t)
	elapsed := time.Since(start)
	s.met.runTime.Observe(elapsed.Seconds())
	s.observeRunTime(elapsed)
	s.met.inflight.Set(float64(s.inflight.Add(-1)))
	s.met.batchSize.Observe(float64(len(b.lanes)))

	batchSpans := t.trace.Spans()
	rounds, totalRounds := t.trace.Rounds()
	replay := func(w *batchWaiter) {
		wb := w.trace.Begin()
		s.replaySpan(w.trace, telemetry.Span{
			Stage:   telemetry.StageCoalesce,
			StartNS: w.joined.Sub(wb).Nanoseconds(),
			DurNS:   b.dispatched.Sub(w.joined).Nanoseconds(),
		})
		// Shared spans are recorded relative to the batch trace's begin;
		// rebase them onto this waiter's clock.
		off := t.trace.Begin().Sub(wb).Nanoseconds()
		for _, sp := range batchSpans {
			sp.StartNS += off
			s.replaySpan(w.trace, sp)
		}
		w.trace.ReplayRounds(rounds, totalRounds)
	}
	meta := taskResult{
		executed: true,
		retries:  t.attempts - 1,
		faults:   t.faults,
		lanes:    len(b.lanes),
		batched:  true,
	}

	if err != nil {
		oc := outcomeError
		if errors.Is(err, emogi.ErrCanceled) {
			oc = outcomeCanceled
		}
		for _, ln := range b.lanes {
			for _, w := range ln.waiters {
				s.met.outcome(oc)
				replay(w)
				r := meta
				r.err = err
				w.done <- r
			}
		}
		return
	}
	if out.BatchedRun {
		s.met.batchedRuns.Inc()
		s.met.edgeScansSaved.Add(out.EdgeScansSaved)
	}
	for i, ln := range b.lanes {
		item := out.Results[i]
		// Per-lane cache fill: only lanes that completed cleanly under the
		// requested transport policy. A degraded lane ran rerouted onto
		// static-uvm — a policy its cache key does not name — so it must
		// never be cached even when its batchmates are.
		if item.Err == nil && ln.cachable && !item.Res.Degraded {
			s.cache.put(ln.key, item.Res)
		}
		for wi, w := range ln.waiters {
			switch {
			case item.Err == nil:
				s.met.outcome(outcomeOK)
			case errors.Is(item.Err, emogi.ErrCanceled):
				s.met.outcome(outcomeCanceled)
			default:
				s.met.outcome(outcomeError)
			}
			res := item.Res
			if wi > 0 {
				// Waiters legitimately mutate their response; duplicates
				// of a lane each get a private copy.
				res = cloneResult(res)
			}
			replay(w)
			r := meta
			r.res = res
			r.err = item.Err
			w.done <- r
		}
	}
}

// executeBatch runs one batch through DoBatch under the same retry ladder
// as single requests (execute): the whole batch retries on transient
// faults, and once the ladder degrades every lane runs under the static-uvm
// policy override, each delivered Result marked Degraded. The batch itself
// never carries a caller context — each lane detaches through its own
// waiters' contexts instead.
func (s *Service) executeBatch(t *task) (*emogi.BatchOutcome, error) {
	b := t.batch
	stop := make(chan struct{})
	defer close(stop)
	reqs := make([]emogi.Request, len(b.lanes))
	for i, ln := range b.lanes {
		reqs[i] = emogi.Request{
			Graph:   b.dg,
			Algo:    b.key.algo,
			Src:     ln.src,
			Variant: b.variant,
			Cold:    true,
			Ctx:     laneContext(ln.waiters, stop),
		}
	}
	var out *emogi.BatchOutcome
	degraded, err := s.retryLadder(t, b.pol, func(pol emogi.TransportPolicy) (err error) {
		for i := range reqs {
			reqs[i].Policy = pol
		}
		// The batch trace rides the dispatch context so the collector
		// attributes the shared run's rounds to it.
		out, err = s.sys.DoBatch(telemetry.WithTrace(context.Background(), t.trace), reqs)
		return err
	})
	if err != nil {
		return nil, err
	}
	if degraded {
		for _, item := range out.Results {
			if item.Res != nil {
				item.Res.Degraded = true
				s.met.degraded.Inc()
			}
		}
	}
	return out, nil
}

// laneContext merges a lane's waiters into the context the engine
// watches: one waiter passes its context through; duplicates yield a
// context done only when every waiter's is — one surviving requester
// keeps the lane running. The watcher goroutine exits with the batch
// through stop.
func laneContext(waiters []*batchWaiter, stop <-chan struct{}) context.Context {
	if len(waiters) == 1 {
		return waiters[0].ctx
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for _, w := range waiters {
			select {
			case <-w.ctx.Done():
			case <-stop:
				return
			}
		}
		cancel()
	}()
	return ctx
}
