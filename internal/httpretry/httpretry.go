// Package httpretry is the client-side half of the service's load
// management contract. tlsd sheds with 429 + Retry-After when its
// admission queue is full, answers 503 while draining, and a cluster
// node answers 503 while peer views converge after a failure — all of
// which mean "come back shortly", not "the work failed". This package
// gives the repo's HTTP clients (the tlssim scenario fleet) one shared
// retry discipline: honor the server's Retry-After when it names one,
// otherwise back off exponentially with jitter, retry transient 5xx
// and transport failures, and give up after a bounded number of
// attempts so a truly dead service fails fast instead of hanging a
// fleet.
package httpretry

import (
	"net/http"
	"strconv"
	"time"
)

// Policy bounds one request's retry behavior.
type Policy struct {
	// Max is the number of retries after the first attempt (0: no
	// retries — Do degenerates to a single Client.Do).
	Max int
	// Base is the first backoff delay; each subsequent retry doubles it
	// (<=0: 50ms).
	Base time.Duration
	// Cap bounds a single backoff delay, including one named by a
	// Retry-After header (<=0: 2s).
	Cap time.Duration
	// Jitter, when non-nil, returns a uniform draw in [0,1) used to
	// spread retries (delay is scaled by 0.5+jitter). nil applies no
	// jitter — callers that need deterministic tests leave it unset.
	Jitter func() float64
	// Sleep replaces time.Sleep in tests (nil: time.Sleep).
	Sleep func(time.Duration)
}

// Retryable reports whether a response status is worth retrying:
// explicit shed/backpressure answers (429, 503) and the transient
// server failures a different moment — or a different node — may not
// reproduce (500, 502, 504). 4xx client errors and 501 are permanent.
func Retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusInternalServerError, http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// RetryAfter extracts a usable Retry-After delay from a response
// (seconds form only; the HTTP-date form is not worth parsing here).
// Returns 0 when absent or malformed.
func RetryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Result reports what one Get spent: how many retries ran and whether
// the budget was exhausted with the last answer still retryable.
type Result struct {
	Retries   int
	Exhausted bool
}

// Get issues a GET with retries under the policy. The caller owns the
// returned response body. A nil response with a nil error cannot
// happen: on total transport failure the last error is returned.
// Requests are GETs (idempotent by construction in this repo), so
// retrying a transport failure is always safe.
func Get(client *http.Client, url string, p Policy) (*http.Response, Result, error) {
	base := p.Base
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	cap := p.Cap
	if cap <= 0 {
		cap = 2 * time.Second
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}

	var res Result
	for attempt := 0; ; attempt++ {
		resp, err := client.Get(url)
		if err == nil && !Retryable(resp.StatusCode) {
			return resp, res, nil
		}
		if attempt >= p.Max {
			// Budget spent: hand back whatever the last attempt produced
			// so the caller can record the real failure mode.
			if err == nil {
				res.Exhausted = true
				return resp, res, nil
			}
			res.Exhausted = true
			return nil, res, err
		}
		// Backoff: the server's Retry-After wins when it names a delay,
		// otherwise exponential from base, either way capped and jittered.
		delay := base << attempt
		if err == nil {
			if ra := RetryAfter(resp); ra > 0 {
				delay = ra
			}
			resp.Body.Close()
		}
		if delay > cap {
			delay = cap
		}
		if p.Jitter != nil {
			delay = time.Duration(float64(delay) * (0.5 + p.Jitter()))
		}
		sleep(delay)
		res.Retries++
	}
}
