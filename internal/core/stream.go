package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rumba/internal/exec"
	"rumba/internal/obs"
	"rumba/internal/quality"
	"rumba/internal/trace"
)

// This file is the deployment-shaped variant of the runtime. System.Run is
// the evaluation harness: it measures true errors against known exact
// targets. Stream is what a real application embeds: inputs arrive one at a
// time, the exact result of an element is unknown unless the recovery module
// actually computes it, and recovery runs on its own goroutines concurrently
// with detection — the software analogue of the Figure 8 overlap.
//
// Production hardening semantics:
//
//   - Cancellation: Process takes a context.Context. Cancelling it tears
//     down detection, the recovery pool and the merger with no goroutine or
//     element leak; the result channel is closed (possibly early).
//   - Degradation: a recovery job whose kernel panics or overruns
//     Config.RecoveryDeadline cannot be fixed, but it must not wedge the
//     in-order merger either. The approximate output is committed with the
//     Degraded flag — quality degrades for that element, the stream lives.
//   - Back-pressure: at most Config.MaxInFlight elements are admitted but
//     not yet delivered, so the merger's reorder buffer is bounded even when
//     recovery is much slower than detection.

// Metric names the streaming runtime registers in its obs.Registry. They are
// exported so tests and dashboards reference one set of spellings.
const (
	// MetricElementsIn counts elements accepted by the detection stage.
	MetricElementsIn = "stream.elements_in"
	// MetricElementsOut counts elements delivered on the result channel.
	MetricElementsOut = "stream.elements_out"
	// MetricFires counts detector firings (elements sent to recovery).
	MetricFires = "stream.fires"
	// MetricFixes counts elements exactly re-executed and committed.
	MetricFixes = "stream.fixes"
	// MetricDegraded counts recovery jobs that panicked or overran the
	// deadline and committed the approximate output instead.
	MetricDegraded = "stream.degraded"
	// MetricInvocations counts tuner invocation boundaries.
	MetricInvocations = "stream.invocations"
	// MetricQueueDepth gauges the recovery queue occupancy.
	MetricQueueDepth = "stream.recovery_queue_depth"
	// MetricPending gauges the merger's reorder-buffer size.
	MetricPending = "stream.merger_pending"
	// MetricInFlight gauges elements admitted but not yet delivered.
	MetricInFlight = "stream.inflight"
	// MetricDetectNs is the per-element detection latency (accelerator
	// invoke + checker) in nanoseconds.
	MetricDetectNs = "stream.latency.detect_ns"
	// MetricRecoverNs is the per-job recovery latency in nanoseconds.
	MetricRecoverNs = "stream.latency.recover_ns"
	// MetricThreshold gauges the tuner threshold trajectory.
	MetricThreshold = "tuner.threshold"
)

// ErrStreamReused is returned by Process when it is called a second time on
// the same Stream: the detection/tuner state is single-shot by design.
var ErrStreamReused = errors.New("core: Stream.Process may be called once per Stream; build a new Stream per run")

// StreamResult is one merged output element.
type StreamResult struct {
	// Index is the element's position in the input stream; results are
	// delivered in index order (the output merger reorders).
	Index int
	// Output is the committed value: the accelerator's output, or the
	// exact re-execution when the check fired.
	Output []float64
	// Fixed reports whether the recovery module replaced the element.
	Fixed bool
	// Degraded reports that the detector fired but recovery could not
	// complete (kernel panic or deadline overrun); Output is the
	// approximate result, committed so the stream keeps its ordering
	// guarantee instead of wedging.
	Degraded bool
	// PredictedError is the checker's estimate for the element (zero when
	// running unchecked).
	PredictedError float64
	// ObservedError is the measured error of the approximate output against
	// the exact re-execution, available only when recovery actually computed
	// the exact result (Observed reports availability). It is the online
	// system's only ground-truth error sample and feeds the serving layer's
	// quality-drift monitor.
	ObservedError float64
	// Observed reports that ObservedError carries a real measurement.
	Observed bool
}

// Stream is a running online Rumba instance.
type Stream struct {
	sys     *System
	workers int
	started atomic.Bool

	// Resolved metric handles; hot paths must not take the registry lock.
	mIn, mOut, mFires, mFixes, mDegraded, mInvocations *obs.Counter
	gQueue, gPending, gInFlight, gThreshold            *obs.Gauge
	hDetect, hRecover                                  *obs.Histogram
}

// NewStream wraps a System for streaming use. workers is the number of
// recovery goroutines (the paper has one host CPU, so 1 reproduces the
// paper's setup; more workers model a multicore host). workers <= 0 selects
// 1.
func NewStream(cfg Config, workers int) (*Stream, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = 1
	}
	st := &Stream{sys: sys, workers: workers}
	r := sys.obs
	st.mIn = r.Counter(MetricElementsIn)
	st.mOut = r.Counter(MetricElementsOut)
	st.mFires = r.Counter(MetricFires)
	st.mFixes = r.Counter(MetricFixes)
	st.mDegraded = r.Counter(MetricDegraded)
	st.mInvocations = r.Counter(MetricInvocations)
	st.gQueue = r.Gauge(MetricQueueDepth)
	st.gPending = r.Gauge(MetricPending)
	st.gInFlight = r.Gauge(MetricInFlight)
	st.gThreshold = r.Gauge(MetricThreshold)
	st.hDetect = r.Histogram(MetricDetectNs)
	st.hRecover = r.Histogram(MetricRecoverNs)
	return st, nil
}

// Metrics returns the stream's observability registry (the one supplied in
// Config.Metrics, or the private registry allocated for it).
func (st *Stream) Metrics() *obs.Registry { return st.sys.obs }

// recoveryJob travels from the detection stage to the recovery workers. It
// carries the approximate output so a failed recovery can still commit
// something.
type recoveryJob struct {
	index  int
	input  []float64
	approx []float64
	pred   float64
}

// resultBatch carries a group of results from a producing stage to the
// output merger in one channel hop. Batches are pooled: the merger copies
// the items into its reorder buffer and returns the batch immediately, so
// ownership is strictly producer -> merger and a batch never outlives one
// hop. The StreamResult.Output slices inside are NOT pooled — they escape
// to the consumer.
type resultBatch struct {
	items []StreamResult
}

var resultBatchPool = sync.Pool{New: func() any { return &resultBatch{} }}

// newResultBatch takes an empty batch from the pool.
//
//rumba:hotpath
func newResultBatch() *resultBatch {
	//rumba:allow hotpath sync.Pool recycles batches; steady state takes the pooled fast path
	b := resultBatchPool.Get().(*resultBatch)
	b.items = b.items[:0]
	return b
}

// inputSource yields the next chunk of stream inputs. buf (capacity =
// BatchSize) is scratch the source may fill and return, or it may return
// its own sub-slice. A nil chunk with ok=true is end of stream; ok=false is
// cancellation. The returned chunk is only valid until the next call.
type inputSource func(ctx context.Context, buf [][]float64) ([][]float64, bool)

// chanSource adapts an input channel: it blocks for the first element of a
// chunk, then fills the rest non-blockingly with whatever is already
// queued. A trickling producer therefore still gets per-element latency —
// batching only kicks in when elements actually queue up.
func chanSource(inputs <-chan []float64) inputSource {
	return func(ctx context.Context, buf [][]float64) ([][]float64, bool) {
		buf = buf[:0]
		select {
		case <-ctx.Done():
			return nil, false
		case v, ok := <-inputs:
			if !ok {
				return nil, true
			}
			buf = append(buf, v)
		}
		for len(buf) < cap(buf) {
			select {
			case v, ok := <-inputs:
				if !ok {
					// Closed mid-fill: hand back the partial chunk; the
					// next call's blocking receive sees the close and
					// reports end of stream.
					return buf, true
				}
				buf = append(buf, v)
			default:
				return buf, true
			}
		}
		return buf, true
	}
}

// sliceSource yields BatchSize-wide windows of a finite input slice with no
// feeder goroutine or channel copies at all.
func sliceSource(inputs [][]float64) inputSource {
	pos := 0
	return func(ctx context.Context, buf [][]float64) ([][]float64, bool) {
		if ctx.Err() != nil {
			return nil, false
		}
		if pos >= len(inputs) {
			return nil, true
		}
		n := cap(buf)
		if rem := len(inputs) - pos; rem < n {
			n = rem
		}
		chunk := inputs[pos : pos+n]
		pos += n
		return chunk, true
	}
}

// Process consumes the input channel and returns the merged, in-order
// result channel. The result channel is closed after the final input's
// element is delivered, or as soon as ctx is cancelled (whichever comes
// first); on cancellation every pipeline goroutine exits and undelivered
// elements are dropped. Process returns ErrStreamReused when called a
// second time — the per-run detection and tuner state is single-shot.
//
// Detection runs in Config.BatchSize chunks through the fused batch kernels
// (exec.BatchExecutor, predictor.PredictErrorBatch); recovery and delivery
// stay per-element, so firing thresholds, Degraded semantics and result
// order are identical at every batch size.
func (st *Stream) Process(ctx context.Context, inputs <-chan []float64) (<-chan StreamResult, error) {
	return st.process(ctx, chanSource(inputs))
}

func (st *Stream) process(ctx context.Context, src inputSource) (<-chan StreamResult, error) {
	if !st.started.CompareAndSwap(false, true) {
		return nil, ErrStreamReused
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan StreamResult, 64)
	// The recovery queue: bounded, so a slow CPU back-pressures detection
	// exactly like the hardware queue of Figure 4 would.
	recovery := make(chan recoveryJob, st.sys.cfg.RecoveryQueueCap)
	merged := make(chan *resultBatch, 64)
	// tokens is the in-flight window: detection acquires a slot per
	// element before emitting it anywhere, the merger releases the slot on
	// delivery. The merger's reorder buffer therefore never holds more
	// than MaxInFlight elements, no matter how slow recovery runs.
	tokens := make(chan struct{}, st.sys.cfg.MaxInFlight)

	var wg sync.WaitGroup

	// Recovery workers: pure kernels re-execute without side effects, so
	// any number of workers may run concurrently. Each job is isolated:
	// panics and deadline overruns degrade the element instead of killing
	// the worker.
	wg.Add(st.workers)
	for w := 0; w < st.workers; w++ {
		go func() {
			defer wg.Done()
			for {
				var job recoveryJob
				select {
				case <-ctx.Done():
					return
				case j, ok := <-recovery:
					if !ok {
						return
					}
					job = j
				}
				st.gQueue.Add(-1)
				res := st.recoverOne(ctx, job)
				b := newResultBatch()
				b.items = append(b.items, res)
				select {
				case merged <- b:
				case <-ctx.Done():
					resultBatchPool.Put(b)
					return
				}
			}
		}()
	}

	// Detection stage: gathers inputs in BatchSize chunks, runs the fused
	// accelerator and checker batch kernels, splits elements between the
	// direct path and the recovery queue, and drives the online tuner at
	// invocation boundaries. Direct-path results accumulate into a pooled
	// batch flushed once per chunk — one channel hop instead of one per
	// element — but are always flushed BEFORE any blocking send or token
	// acquire: the merger can only release in-flight slots for elements it
	// has seen, so blocking while holding unflushed results would deadlock
	// once BatchSize approaches MaxInFlight.
	// The request span (if any) travels in ctx; every pipeline stage hangs
	// its spans off it. With tracing disabled this is a zero SpanRef and all
	// span calls below reduce to nil checks — the hot path allocates nothing.
	reqSpan := trace.FromContext(ctx)

	go func() {
		cfg := &st.sys.cfg
		if cfg.Checker != nil {
			cfg.Checker.Reset()
		}
		if cfg.Tuner != nil {
			st.gThreshold.Set(cfg.Tuner.Threshold)
		}
		batch := cfg.BatchSize
		outW := cfg.Spec.OutDim
		gather := make([][]float64, 0, batch)
		rows := make([][]float64, batch)
		preds := make([]float64, batch)
		var direct *resultBatch

		// flushDirect hands the accumulated direct-path results to the
		// merger. false means the stream was cancelled.
		flushDirect := func() bool {
			if direct == nil || len(direct.items) == 0 {
				return true
			}
			select {
			case merged <- direct:
				direct = nil
				return true
			case <-ctx.Done():
				return false
			}
		}
		abort := func() {
			if direct != nil {
				resultBatchPool.Put(direct)
			}
		}

		idx := 0
		invFixed := 0
		invStart := 0
		for {
			chunk, alive := src(ctx, gather)
			if !alive {
				abort()
				return
			}
			if len(chunk) == 0 {
				// Normal end of stream: flush the tail, drain the pool,
				// then let the merger finish.
				if !flushDirect() {
					abort()
					return
				}
				close(recovery)
				wg.Wait()
				close(merged)
				return
			}
			n := len(chunk)
			chunkSp := reqSpan.Start("stream.chunk")
			chunkSp.SetInt("elements", int64(n))
			chunkFires := 0
			start := time.Now()
			// One flat allocation backs the whole chunk's outputs; a batch
			// executor fills the rows in place (rows escape to the consumer
			// through StreamResult.Output, so they cannot be pooled). The
			// three-index slice keeps a fallback executor's fresh rows from
			// being silently clipped by a neighbour's capacity.
			flat := make([]float64, n*outW)
			for i := 0; i < n; i++ {
				rows[i] = flat[i*outW : (i+1)*outW : (i+1)*outW]
			}
			exec.InvokeBatchTraced(chunkSp, cfg.Accel, rows[:n], chunk)
			if cfg.Checker != nil {
				csp := chunkSp.Start("checker.predict")
				cfg.Checker.PredictErrorBatch(preds[:n], chunk, rows[:n])
				csp.End()
			}
			perElement := float64(time.Since(start)) / float64(n)
			for i := 0; i < n; i++ {
				st.hDetect.Observe(perElement)
			}
			st.mIn.Add(int64(n))

			for i := 0; i < n; i++ {
				pred := 0.0
				fire := false
				if cfg.Checker != nil {
					pred = preds[i]
					fire = pred > cfg.Tuner.Threshold
				}
				// Acquire the in-flight slot, flushing first if we must wait.
				select {
				case tokens <- struct{}{}:
				default:
					if !flushDirect() {
						abort()
						return
					}
					select {
					case tokens <- struct{}{}:
					case <-ctx.Done():
						abort()
						return
					}
				}
				st.gInFlight.Add(1)
				if fire {
					invFixed++
					chunkFires++
					st.mFires.Inc()
					job := recoveryJob{index: idx, input: chunk[i], approx: rows[i], pred: pred}
					select {
					case recovery <- job:
						st.gQueue.Add(1)
					default:
						if !flushDirect() {
							abort()
							return
						}
						select {
						case recovery <- job:
							st.gQueue.Add(1)
						case <-ctx.Done():
							abort()
							return
						}
					}
				} else {
					if direct == nil {
						direct = newResultBatch()
					}
					direct.items = append(direct.items, StreamResult{Index: idx, Output: rows[i], PredictedError: pred})
				}
				idx++
				if cfg.Tuner != nil && idx-invStart >= cfg.InvocationSize {
					cfg.Tuner.Observe(InvocationStats{
						Elements:       idx - invStart,
						Fixed:          invFixed,
						CPUUtilisation: st.sys.estimateUtilisation(invFixed, idx-invStart),
					})
					st.mInvocations.Inc()
					st.gThreshold.Set(cfg.Tuner.Threshold)
					invStart = idx
					invFixed = 0
				}
			}
			chunkSp.SetInt("fires", int64(chunkFires))
			chunkSp.End()
			if !flushDirect() {
				abort()
				return
			}
		}
	}()

	// Output merger: reorders the two paths back into stream order and
	// releases in-flight slots as elements leave the pipeline. Incoming
	// batches are copied into the reorder buffer and returned to the pool
	// in the same iteration — the merger never retains a pooled batch
	// across channel receives.
	go func() {
		defer close(out)
		pending := make(map[int]StreamResult)
		next := 0
		for {
			var b *resultBatch
			select {
			case <-ctx.Done():
				return
			case it, ok := <-merged:
				if !ok {
					// merged is closed only after every element was
					// produced, so pending must be empty here unless
					// a cancellation let a recovery worker drop its
					// element (both this case and ctx.Done can be
					// ready at once); anything else is a bug.
					if len(pending) != 0 && ctx.Err() == nil {
						panic(fmt.Sprintf("core: output merger lost ordering, %d stranded elements", len(pending)))
					}
					return
				}
				b = it
			}
			msp := reqSpan.Start("merge.commit")
			msp.SetInt("items", int64(len(b.items)))
			for _, r := range b.items {
				pending[r.Index] = r
			}
			resultBatchPool.Put(b)
			st.gPending.Set(float64(len(pending)))
			delivered := 0
			for {
				r, ok := pending[next]
				if !ok {
					break
				}
				select {
				case out <- r:
				case <-ctx.Done():
					return
				}
				delete(pending, next)
				st.mOut.Inc()
				st.gInFlight.Add(-1)
				<-tokens
				next++
				delivered++
			}
			st.gPending.Set(float64(len(pending)))
			msp.SetInt("delivered", int64(delivered))
			msp.End()
		}
	}()
	return out, nil
}

// recoverOne performs one recovery job with panic isolation and the
// per-job deadline. It always produces a committable result: the exact
// output (Fixed) when re-execution succeeds, the approximate output
// (Degraded) when the kernel panics, overruns Config.RecoveryDeadline, or
// the stream is cancelled mid-job.
func (st *Stream) recoverOne(ctx context.Context, job recoveryJob) StreamResult {
	sp := trace.FromContext(ctx).Start("exec.recover")
	sp.SetInt("index", int64(job.index))
	sp.SetFloat("predicted_error", job.pred)
	start := time.Now()
	exact, ok := st.runExact(ctx, job.input)
	st.hRecover.Observe(float64(time.Since(start)))
	if !ok {
		st.mDegraded.Inc()
		sp.SetStr("outcome", "degraded")
		sp.AddFlag(trace.FlagDegraded)
		sp.End()
		return StreamResult{
			Index:          job.index,
			Output:         job.approx,
			Degraded:       true,
			PredictedError: job.pred,
		}
	}
	st.mFixes.Inc()
	// The exact recomputation is the one moment the online system holds
	// ground truth: score the approximate output against it. This observed
	// error calibrates the checker and feeds the drift monitor upstream.
	obsErr := quality.ElementError(st.sys.cfg.Spec.Metric, exact, job.approx, st.sys.cfg.Spec.Scale)
	sp.SetStr("outcome", "fixed")
	sp.SetFloat("observed_error", obsErr)
	sp.End()
	return StreamResult{
		Index:          job.index,
		Output:         exact,
		Fixed:          true,
		PredictedError: job.pred,
		ObservedError:  obsErr,
		Observed:       true,
	}
}

// runExact invokes the exact kernel with panic isolation. With a deadline
// configured the call races a timer on a helper goroutine; an overrunning
// kernel is abandoned (it holds no locks — kernels are pure — so it simply
// finishes on its own and is garbage collected).
func (st *Stream) runExact(ctx context.Context, in []float64) (out []float64, ok bool) {
	if st.sys.cfg.RecoveryDeadline <= 0 {
		return st.callExact(in)
	}
	// The helper goroutine can be abandoned past the deadline and finish
	// long after the stream completed, so it must not retain caller-owned
	// input memory — a serving layer recycles request buffers as soon as
	// ProcessSlice returns successfully.
	in = append([]float64(nil), in...)
	type exactResult struct {
		out []float64
		ok  bool
	}
	done := make(chan exactResult, 1) // buffered: an abandoned call must not leak its goroutine
	go func() {
		o, k := st.callExact(in)
		done <- exactResult{out: o, ok: k}
	}()
	timer := time.NewTimer(st.sys.cfg.RecoveryDeadline)
	defer timer.Stop()
	select {
	case r := <-done:
		return r.out, r.ok
	case <-timer.C:
		return nil, false
	case <-ctx.Done():
		return nil, false
	}
}

// callExact runs the kernel, converting a panic into a degraded verdict.
func (st *Stream) callExact(in []float64) (out []float64, ok bool) {
	defer func() {
		if recover() != nil {
			out, ok = nil, false
		}
	}()
	return st.sys.cfg.Spec.Exact(in), true
}

// StreamStats summarises a finished streaming run against known targets; it
// is a test/evaluation convenience, not part of the online path.
type StreamStats struct {
	Elements int
	Fixed    int
	// Degraded counts elements whose recovery panicked or timed out and
	// whose approximate output was committed instead.
	Degraded    int
	OutputError float64
}

// EvaluateStream drains a result channel and scores it against the exact
// targets (evaluation only — the online system never sees these).
func EvaluateStream(results <-chan StreamResult, targets [][]float64, metric quality.Metric, scale float64) (StreamStats, error) {
	var st StreamStats
	var sum float64
	next := 0
	for r := range results {
		if r.Index != next {
			return st, fmt.Errorf("core: out-of-order result %d, want %d", r.Index, next)
		}
		if r.Index >= len(targets) {
			return st, fmt.Errorf("core: result index %d beyond %d targets", r.Index, len(targets))
		}
		sum += quality.ElementError(metric, targets[r.Index], r.Output, scale)
		if r.Fixed {
			st.Fixed++
		}
		if r.Degraded {
			st.Degraded++
		}
		st.Elements++
		next++
	}
	if st.Elements > 0 {
		st.OutputError = sum / float64(st.Elements)
	}
	return st, nil
}
