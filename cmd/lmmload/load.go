package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"lmmrank"
)

// opSample is one completed Rank call: the window it ran in, how long
// the caller waited, and whether a span was recorded for it.
type opSample struct {
	window int
	lat    time.Duration
	traced bool
}

// client is one closed-loop caller: it sends its next query only after
// the previous one returned. Everything it records is private until the
// phase ends.
type client struct {
	gen     *queryGen
	traffic *traffic
	stride  int

	samples  []opSample
	failures []string
	// Traced phases only: spans of the calls made while tracing was on,
	// each query's descriptor beside it so the ladder can replay it, and
	// the Result.Dist of distributed answers.
	spans []span
	descs []queryDesc
	dist  []lmmrank.DistStats
}

// phase is a stretch of load against an engine, run window by window
// so that throughput can be reported as a median over windows.
type phase struct {
	eng     engine
	clients []*client
	// tr is nil in untraced phases; with tracing set, clients record a
	// span per call.
	tr      *tracer
	tracing bool
}

// runWindow drives every client for length and returns, once all of
// them have stopped, how long that took. A call in flight at the
// deadline completes and is counted, so the window ends on a
// completion and count/elapsed is exact.
func (p *phase) runWindow(ctx context.Context, window int, length time.Duration) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for id, c := range p.clients {
		wg.Add(1)
		go func(id int, c *client) {
			defer wg.Done()
			for {
				begin := time.Since(start)
				if begin >= length {
					return
				}
				d := c.gen.next()
				q := c.traffic.query(d)
				n := len(c.samples)
				var spanStart int64
				if p.tracing {
					spanStart = p.tr.now()
				}
				res, err := p.eng.Rank(ctx, q)
				end := time.Since(start)
				if p.tracing {
					c.spans = append(c.spans, span{Name: "load.rank", Query: queryID(id, n), StartNs: spanStart, EndNs: p.tr.now()})
					c.descs = append(c.descs, d)
				}
				c.samples = append(c.samples, opSample{window: window, lat: end - begin, traced: p.tracing})
				if err != nil {
					c.failures = append(c.failures, fmt.Sprintf("rank: %v", err))
					continue
				}
				if p.tr != nil && res.Dist != nil {
					c.dist = append(c.dist, *res.Dist)
				}
				if n%c.stride == 0 {
					if msg := checkAnswer(res, q); msg != "" {
						c.failures = append(c.failures, msg)
					}
				}
			}
		}(id, c)
	}
	wg.Wait()
	return time.Since(start)
}

// queryID gives every query of a phase its own identifier: the client
// in the low digit, the client's sequence number above it.
func queryID(client, n int) int { return (n+1)*10 + client }

// checkAnswer is the inline check a sampled answer gets: the DocRank is
// a probability distribution, and a requested Top table has the asked
// length in descending order. It is cheap enough to run between calls;
// the bit-for-bit Top comparison runs after the phase (checks.go).
func checkAnswer(res *lmmrank.Result, q lmmrank.Query) string {
	var sum float64
	for d, x := range res.DocRank {
		if x < 0 || math.IsNaN(x) {
			return fmt.Sprintf("check: DocRank[%d] = %g", d, x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Sprintf("check: DocRank sums to %.12f", sum)
	}
	if q.TopK > 0 {
		if len(res.Top) != q.TopK {
			return fmt.Sprintf("check: Top has %d rows, want %d", len(res.Top), q.TopK)
		}
		for i := 1; i < len(res.Top); i++ {
			if res.Top[i].Score > res.Top[i-1].Score {
				return fmt.Sprintf("check: Top row %d out of order", i)
			}
		}
	}
	return ""
}

// samples returns every client's samples.
func (p *phase) samples() []opSample {
	var all []opSample
	for _, c := range p.clients {
		all = append(all, c.samples...)
	}
	return all
}

func (p *phase) failures() []string {
	var all []string
	for _, c := range p.clients {
		all = append(all, c.failures...)
	}
	return all
}

// updateSample is one Update of the open schedule: how late it started
// and how long after its due time it was done.
type updateSample struct {
	lag time.Duration
	lat time.Duration
}

// updater applies one edit every period on an open schedule: edit k is
// due at k·period of load time whether or not edit k−1 has finished,
// and its latency counts from the due time, so a stall shows in the
// edits queued behind it and in lag. Load time is the time spent inside
// windows; the schedule pauses with the load between them.
type updater struct {
	eng    engine
	plan   []edit
	period time.Duration
	tr     *tracer

	elapsed time.Duration // load time of the windows already run
	next    int           // index into plan of the next edit

	samples  []updateSample
	spans    []span
	failures []string
}

// runWindow applies the edits that fall due within the next length of
// load time and returns when the last one it started is done — it never
// leaves an Update in flight, and never starts one after the window.
func (u *updater) runWindow(ctx context.Context, length time.Duration) {
	start := time.Now()
	defer func() { u.elapsed += length }()
	for u.next < len(u.plan) {
		due := time.Duration(u.next+1)*u.period - u.elapsed
		if due >= length {
			return
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		begin := time.Since(start)
		if begin >= length {
			return // the schedule fell behind by the rest of the window
		}
		var spanStart int64
		if u.tr != nil {
			spanStart = u.tr.now()
		}
		err := u.eng.Update(ctx, u.plan[u.next].delta())
		if u.tr != nil {
			u.spans = append(u.spans, span{Name: "load.update", StartNs: spanStart, EndNs: u.tr.now()})
		}
		u.samples = append(u.samples, updateSample{lag: begin - due, lat: time.Since(start) - due})
		if err != nil {
			u.failures = append(u.failures, fmt.Sprintf("update: %v", err))
		}
		u.next++
	}
}
