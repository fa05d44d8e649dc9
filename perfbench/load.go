package main

import (
	"bytes"
	"net/http"
	"sync"
	"time"
)

// response is what a check sees of one answer.
type response struct {
	Status int
	Cache  string // X-Tlsd-Cache: hit or miss
	Body   []byte // valid only during the check; copy to keep
}

// loadResult is one closed-loop load phase.
type loadResult struct {
	LatMS     []float64 // latency of every request that passed its check
	Attempted int
	Failed    int // refused, non-200, or failed its output check
	Wall      time.Duration
}

// runLoad drives a closed loop: one goroutine per client, each sending
// its next request only after the previous answer is read in full, over
// at most one connection per client. Latency is measured from just
// before the request is sent to the end of its body. check decides
// whether an answer is correct; it may be called from several clients
// at once.
func runLoad(base string, paths [][]string, check func(client, i int, r response) bool) loadResult {
	tr := &http.Transport{
		MaxConnsPerHost:     len(paths),
		MaxIdleConnsPerHost: len(paths),
		DisableCompression:  true,
	}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	per := make([]loadResult, len(paths))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range paths {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &per[c]
			res.LatMS = make([]float64, 0, len(paths[c]))
			var buf bytes.Buffer
			for i, p := range paths[c] {
				res.Attempted++
				t0 := time.Now()
				resp, err := hc.Get(base + p)
				if err != nil {
					res.Failed++
					continue
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				lat := time.Since(t0)
				if err != nil || !check(c, i, response{Status: resp.StatusCode, Cache: resp.Header.Get("X-Tlsd-Cache"), Body: buf.Bytes()}) {
					res.Failed++
					continue
				}
				res.LatMS = append(res.LatMS, float64(lat.Nanoseconds())/1e6)
			}
		}(c)
	}
	wg.Wait()
	out := loadResult{Wall: time.Since(start)}
	for _, r := range per {
		out.LatMS = append(out.LatMS, r.LatMS...)
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	return out
}
