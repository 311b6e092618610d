package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// reply is what one HTTP request returned.
type reply struct {
	status    int // 0 when the request never got a response
	elapsedNS int64
	checksum  string
}

func (r reply) ok() bool { return r.status == http.StatusOK }

// client sends traversal requests over a bounded set of keep-alive
// connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// traverse POSTs one request. Transport errors come back as status 0.
func (c *client) traverse(q query) reply {
	body := fmt.Sprintf(`{"dataset":%q,"algo":%q,"src":%d,"variant":%q}`, q.dataset, q.algo, q.src, variant)
	resp, err := c.http.Post(c.base+"/v1/traverse", "application/json", bytes.NewBufferString(body))
	if err != nil {
		return reply{}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}
	}
	r := reply{status: resp.StatusCode}
	if r.ok() {
		var out struct {
			ElapsedNS      int64  `json:"elapsed_ns"`
			ValuesChecksum string `json:"values_checksum"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			return reply{status: -1}
		}
		r.elapsedNS, r.checksum = out.ElapsedNS, out.ValuesChecksum
	}
	return r
}

// sent is one measured request: what was sent, what came back, and its
// latency (+Inf when it failed).
type sent struct {
	q       query
	r       reply
	latency time.Duration
}

// openLoop sends the arrivals on their schedule over conns connections.
// Each request's latency runs from its due time, so a stall shows in every
// request queued behind it. It returns the requests in schedule order and
// the generator's worst lateness: how long after its due time a request
// was handed to the connection pool.
func openLoop(c *client, conns int, arrivals []arrival) ([]sent, time.Duration) {
	out := make([]sent, len(arrivals))
	type job struct {
		i   int
		due time.Time
	}
	// Sized to the schedule so the generator never blocks on a busy pool;
	// waiting for a connection is part of a request's latency.
	jobs := make(chan job, len(arrivals))
	var wg sync.WaitGroup
	wg.Add(conns)
	for k := 0; k < conns; k++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				q := arrivals[j.i].q
				r := c.traverse(q)
				out[j.i] = sent{q: q, r: r, latency: time.Since(j.due)}
			}
		}()
	}
	start := time.Now()
	var lag time.Duration
	for i, a := range arrivals {
		due := start.Add(time.Duration(a.at * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if l := time.Since(due); l > lag {
			lag = l
		}
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return out, lag
}

// closedLoop keeps conns connections busy for the given duration, each
// sending its next request as soon as the previous one returns, cycling
// through pool from *next onward. It returns every completed request and
// the wall time from the phase start to the last completion.
func closedLoop(c *client, conns int, pool []query, next *atomic.Int64, d time.Duration) ([]sent, time.Duration) {
	var mu sync.Mutex
	var out []sent
	var last time.Time
	start := time.Now()
	stopAt := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(conns)
	for k := 0; k < conns; k++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(stopAt) {
				q := pool[int(next.Add(1)-1)%len(pool)]
				t0 := time.Now()
				r := c.traverse(q)
				end := time.Now()
				mu.Lock()
				out = append(out, sent{q: q, r: r, latency: end.Sub(t0)})
				if end.After(last) {
					last = end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, last.Sub(start)
}

// latencies returns the phase's latencies with failures as +Inf, in
// milliseconds.
func latencies(reqs []sent) []float64 {
	out := make([]float64, len(reqs))
	for i, s := range reqs {
		out[i] = math.Inf(1)
		if s.r.ok() {
			out[i] = float64(s.latency) / float64(time.Millisecond)
		}
	}
	return out
}
