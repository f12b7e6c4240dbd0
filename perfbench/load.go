package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rumba/internal/server"
)

// target sends one encoded invoke and returns the raw reply.
type target interface {
	invoke(body []byte) (status int, hdr http.Header, reply []byte, err error)
}

// httpTarget posts over loopback on a client capped at `clients` connections.
type httpTarget struct {
	client *http.Client
	url    string
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

func (t httpTarget) invoke(body []byte) (int, http.Header, []byte, error) {
	resp, err := t.client.Post(t.url+"/v1/invoke", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, reply, err
}

// inprocTarget calls a node's handler directly: no socket, no net/http
// server, just the handler's own work.
type inprocTarget struct{ h http.Handler }

func (t inprocTarget) invoke(body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, "/v1/invoke", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes(), nil
}

// outcome is one checked request.
type outcome struct {
	shed  bool
	elems int
	lat   time.Duration
	hdr   http.Header
	err   error
}

// send invokes one pooled request and runs the oracle on the reply.
func send(t target, r *request) outcome {
	start := time.Now()
	status, hdr, reply, err := t.invoke(r.body)
	o := outcome{lat: time.Since(start), hdr: hdr}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(reply))
	}
	if err != nil {
		o.err = err
		return o
	}
	var resp server.InvokeResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		o.err = fmt.Errorf("decoding reply: %w", err)
		return o
	}
	if resp.Checker != checkerName {
		o.err = fmt.Errorf("reply served by checker %q, want %q", resp.Checker, checkerName)
		return o
	}
	if err := r.exp.check(&resp); err != nil {
		o.err = err
		return o
	}
	o.shed, o.elems = resp.Degraded, len(resp.Outputs)
	return o
}

// tally accumulates request outcomes across load-generator goroutines.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	shed      int
	elems     int // correct, unshed elements
	firstErr  error
}

func (t *tally) add(o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	switch {
	case o.err != nil:
		t.failed++
		if t.firstErr == nil {
			t.firstErr = o.err
		}
	case o.shed:
		t.shed++
	default:
		t.elems += o.elems
	}
}

func (t *tally) merge(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	t.shed += o.shed
	t.elems += o.elems
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// closedLoop runs `clients` back-to-back clients over the pool for d,
// starting at pool index 0, and returns the elapsed wall time.
func closedLoop(pool []request, d time.Duration, tl *tally) time.Duration {
	var next atomic.Int64
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				r := &pool[i%len(pool)]
				tl.add(send(r.to, r))
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openSample is one open-loop request.
type openSample struct {
	lat, late time.Duration // from due time to reply, and to send
	ok        bool          // correct, unshed and within the latency limit
}

// latencies extracts one duration per sample.
func latencies(ss []openSample, late bool) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lat
		if late {
			out[i] = s.late
		}
	}
	return out
}

// openLoop sends request i at start + i/rate on at most `clients`
// connections, timing it from that due time. A request whose connection is
// still busy when it falls due waits, and the wait counts in its latency; so
// does the pacer's own lateness, which the runtime's millisecond timer
// granularity on an idle process bounds at about a millisecond.
func openLoop(pool []request, w workload, d time.Duration, tl *tally) []openSample {
	interval := time.Duration(float64(time.Second) / w.rate)
	due := int(d / interval)
	samples := make([]openSample, due)
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= due {
					return
				}
				at := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(at))
				late := time.Since(at)
				r := &pool[i%len(pool)]
				o := send(r.to, r)
				tl.add(o)
				lat := time.Since(at)
				samples[i] = openSample{lat: lat, late: late, ok: o.err == nil && !o.shed && lat <= w.limit}
			}
		}()
	}
	wg.Wait()
	return samples
}

// readSteal returns the machine's cumulative stolen CPU time in clock ticks
// from /proc/stat, or 0 where there is none to read, which makes every
// window equally calm.
func readSteal() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(fields[8], 10, 64)
	return n
}

// quantile returns the q-quantile of xs (sorted in place), interpolating
// between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
