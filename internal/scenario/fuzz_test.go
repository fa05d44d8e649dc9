package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary bytes through the YAML parser, the decoder
// and validate. Seeds are the shipped scenarios, the fixtures and every
// malformed scenario of TestValidateErrors. Properties: Parse never
// panics or hangs, every error starts with the file name it was given,
// and an accepted input parses to the same JSON twice.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(files) == 0 {
		f.Fatalf("no scenarios found: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(validScenario))
	f.Add([]byte(minimalScenario))
	for _, tc := range validateErrorCases(f) {
		f.Add([]byte(tc.src))
	}

	const file = "fuzz.yaml"
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(file, data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), file) {
				t.Fatalf("error does not start with the file name: %v", err)
			}
			return
		}
		again, err := Parse(file, data)
		if err != nil {
			t.Fatalf("accepted once, rejected on reparse: %v", err)
		}
		a, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		b, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("two parses differ:\n%s\n%s", a, b)
		}
	})
}
