package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// digest hashes a set of (key, body) pairs in key order, length-prefixing
// each part so no two different sets can collide by concatenation.
func digest(bodies map[string][]byte) string {
	keys := make([]string, 0, len(bodies))
	for k := range bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var n [8]byte
	for _, k := range keys {
		for _, part := range [][]byte{[]byte(k), bodies[k]} {
			binary.LittleEndian.PutUint64(n[:], uint64(len(part)))
			h.Write(n[:])
			h.Write(part)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cacheField is how tlsd's indented JSON encoder writes the one field of
// a response that differs between a cold and a warm answer.
var (
	cacheMiss = []byte(`"cache": "miss"`)
	cacheHit  = []byte(`"cache": "hit"`)
	cacheNone = []byte(`"cache": ""`)
)

// normalize blanks the cache state of a tlsd response body, so a cold
// answer and a warm re-read of the same artifact compare equal byte for
// byte.
func normalize(body []byte) []byte {
	for _, state := range [][]byte{cacheMiss, cacheHit} {
		if i := bytes.Index(body, state); i >= 0 {
			out := make([]byte, 0, len(body))
			out = append(out, body[:i]...)
			out = append(out, cacheNone...)
			return append(out, body[i+len(state):]...)
		}
	}
	return append([]byte(nil), body...)
}

// warmBody turns a cold answer into the exact bytes a warm re-read of
// the same artifact must return.
func warmBody(cold []byte) []byte {
	return bytes.Replace(cold, cacheMiss, cacheHit, 1)
}

// digests are the committed output digests the correctness gate checks
// against: outputs are a pure function of the inputs, so any change to
// these bytes is a change in what the program computes.
type digests struct {
	// Figures digests the rendered text of all nine experiments.
	Figures string `json:"figures"`
	// Dashboard digests the 144 artifacts the dashboard serves.
	Dashboard string `json:"dashboard"`
	// ExploreSeed and Explore digest each explore round at that seed;
	// other seeds are checked by warm re-reads alone.
	ExploreSeed uint64   `json:"explore_seed"`
	Explore     []string `json:"explore"`
}

func loadDigests(path string) (*digests, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	var d digests
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("digests: %s: %w", path, err)
	}
	return &d, nil
}

func (d *digests) save(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// exploreDigest returns the committed digest of an explore round, if
// that (seed, round) has one.
func (d *digests) exploreDigest(seed uint64, round int) (string, bool) {
	if seed != d.ExploreSeed || round >= len(d.Explore) {
		return "", false
	}
	return d.Explore[round], true
}
