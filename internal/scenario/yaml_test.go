package scenario

import (
	"strings"
	"testing"
)

// get returns the value for key in a mapping, or nil.
func (n *node) get(key string) *node {
	for i, k := range n.keys {
		if k == key {
			return n.vals[i]
		}
	}
	return nil
}

func mustParse(t *testing.T, src string) *node {
	t.Helper()
	n, err := parseYAML("test.yaml", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	return n
}

func TestYAMLMappingAndNesting(t *testing.T) {
	n := mustParse(t, `
name: demo            # trailing comment
description: "a: quoted # not a comment"
daemons:
  count: 2
  benchmarks: [go, mcf]
fleet:
  clients: 10
  startup: {pattern: wave, duration: 5s}
`)
	if n.kind != mapNode {
		t.Fatalf("root is %s, want mapping", n.kindName())
	}
	if got := n.get("name").scalar; got != "demo" {
		t.Errorf("name = %q", got)
	}
	if got := n.get("description").scalar; got != "a: quoted # not a comment" {
		t.Errorf("description = %q", got)
	}
	d := n.get("daemons")
	if d == nil || d.kind != mapNode {
		t.Fatal("daemons is not a mapping")
	}
	if got := d.get("count").scalar; got != "2" {
		t.Errorf("count = %q", got)
	}
	b := d.get("benchmarks")
	if b.kind != seqNode || len(b.items) != 2 || b.items[1].scalar != "mcf" {
		t.Errorf("benchmarks flow seq parsed wrong: %+v", b)
	}
	st := n.get("fleet").get("startup")
	if st.kind != mapNode || st.get("pattern").scalar != "wave" || st.get("duration").scalar != "5s" {
		t.Errorf("flow mapping parsed wrong: %+v", st)
	}
}

func TestYAMLSequences(t *testing.T) {
	n := mustParse(t, `
templates:
  - name: readers
    weight: 0.6
    think:
      dist: exp
      mean: 100ms
  - name: writers
    weight: 0.4
    bench:
      - go
      - mcf
plain:
  - a
  - b
`)
	ts := n.get("templates")
	if ts.kind != seqNode || len(ts.items) != 2 {
		t.Fatalf("templates: %+v", ts)
	}
	first := ts.items[0]
	if first.kind != mapNode || first.get("name").scalar != "readers" {
		t.Fatalf("first item: %+v", first)
	}
	if first.get("think").get("mean").scalar != "100ms" {
		t.Error("nested block inside sequence item parsed wrong")
	}
	second := ts.items[1]
	bench := second.get("bench")
	if bench.kind != seqNode || len(bench.items) != 2 || bench.items[0].scalar != "go" {
		t.Errorf("nested sequence inside item: %+v", bench)
	}
	plain := n.get("plain")
	if plain.kind != seqNode || len(plain.items) != 2 || plain.items[1].scalar != "b" {
		t.Errorf("scalar sequence: %+v", plain)
	}
}

func TestYAMLFlowItemsInSequence(t *testing.T) {
	n := mustParse(t, `
faults:
  - {at: 100ms, kind: point, point: fs.read}
  - {at: 400ms, kind: kill, target: 1}
  - [a, b]
`)
	fs := n.get("faults")
	if fs.kind != seqNode || len(fs.items) != 3 {
		t.Fatalf("faults: %+v", fs)
	}
	first := fs.items[0]
	if first.kind != mapNode || first.get("at").scalar != "100ms" || first.get("point").scalar != "fs.read" {
		t.Fatalf("flow mapping item: %+v", first)
	}
	if fs.items[1].get("target").scalar != "1" {
		t.Errorf("second flow item: %+v", fs.items[1])
	}
	third := fs.items[2]
	if third.kind != seqNode || len(third.items) != 2 || third.items[0].scalar != "a" {
		t.Errorf("flow sequence item: %+v", third)
	}
}

func TestYAMLQuoting(t *testing.T) {
	n := mustParse(t, `
single: 'it''s quoted'
double: "tab\there"
`)
	if got := n.get("single").scalar; got != "it's quoted" {
		t.Errorf("single = %q", got)
	}
	if got := n.get("double").scalar; got != "tab\there" {
		t.Errorf("double = %q", got)
	}
}

func TestYAMLErrorsArePositional(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error, including "test.yaml:<line>"
	}{
		{"tab indent", "a: 1\n\tb: 2\n", "test.yaml:2"},
		{"duplicate key", "a: 1\nb: 2\na: 3\n", "test.yaml:3: duplicate key"},
		{"bad line", "a: 1\nnot a kv pair\n", "test.yaml:2"},
		{"bad dedent", "a:\n    b: 1\n  c: 2\n", "test.yaml:3"},
		{"unterminated flow", "a: [1, 2\n", "test.yaml:1"},
		{"empty doc", "# only a comment\n", "empty document"},
		{"empty seq item", "a:\n  -\n", "test.yaml:2"},
		{"multi-doc", "a: 1\n---\nb: 2\n", "test.yaml:2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseYAML("test.yaml", []byte(tc.src))
			if err == nil {
				t.Fatalf("parse succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestYAMLCommentStripping(t *testing.T) {
	if got := stripComment(`value # comment`); got != "value " {
		t.Errorf("stripComment = %q", got)
	}
	if got := stripComment(`"a # b" # comment`); got != `"a # b" ` {
		t.Errorf("stripComment quoted = %q", got)
	}
	if got := stripComment(`#leading`); got != "" {
		t.Errorf("stripComment leading = %q", got)
	}
	// A '#' not preceded by a space is data, not a comment.
	if got := stripComment(`color: red#1`); got != "color: red#1" {
		t.Errorf("stripComment inline hash = %q", got)
	}
}
