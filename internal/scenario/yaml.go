// Package scenario is the declarative stress-testing DSL and its
// execution engine: YAML scenario files declare client fleets generated
// from weighted templates, load shapes, a seeded failure-injection
// schedule, and assertions; the Runner spins up real tlsd daemons,
// replays the generated fleet against them, injects the scheduled
// faults (including real SIGKILLs), and evaluates the assertions into
// JSON and HTML reports. Everything derived from the scenario and a
// seed — the fleet, every client's request schedule, the fault
// timeline — is deterministic per seed; see docs/scenarios.md.
package scenario

import (
	"fmt"
	"strings"
)

// The repo deliberately has zero module dependencies, so scenarios are
// parsed by this file: a small, strict YAML subset with positional
// errors. Supported: nested mappings and sequences by two-or-more-space
// indentation, `- ` sequence items (scalar, block, or inline-mapping
// form), single- and double-quoted scalars, `# comments`, and one-line
// flow collections of scalars (`[a, b]`, `{k: v}`). Not supported (and
// rejected, never misparsed): tabs in indentation, anchors/aliases,
// multi-line block scalars, multi-document streams.

// nodeKind discriminates parsed YAML nodes.
type nodeKind int

const (
	scalarNode nodeKind = iota
	mapNode
	seqNode
)

// node is one parsed YAML value, annotated with its source line for
// positional error messages.
type node struct {
	kind nodeKind
	line int

	scalar string // scalarNode

	keys     []string // mapNode, in document order
	keyLines []int
	vals     []*node

	items []*node // seqNode
}

func (n *node) kindName() string {
	switch n.kind {
	case mapNode:
		return "mapping"
	case seqNode:
		return "sequence"
	default:
		return "scalar"
	}
}

// parseError is a positional DSL error: file:line: message.
type parseError struct {
	file string
	line int
	msg  string
}

func (e *parseError) Error() string {
	if e.line > 0 {
		return fmt.Sprintf("%s:%d: %s", e.file, e.line, e.msg)
	}
	return fmt.Sprintf("%s: %s", e.file, e.msg)
}

func errAt(file string, line int, format string, args ...any) error {
	return &parseError{file: file, line: line, msg: fmt.Sprintf(format, args...)}
}

// srcLine is one significant (non-blank, non-comment) input line.
type srcLine struct {
	indent int
	text   string // content with indentation stripped
	num    int    // 1-based source line
}

// parseYAML parses a document into a node tree. file is used only for
// error messages.
func parseYAML(file string, data []byte) (*node, error) {
	var lines []srcLine
	for i, raw := range strings.Split(string(data), "\n") {
		num := i + 1
		if strings.Contains(raw, "\t") {
			if idx := strings.IndexFunc(raw, func(r rune) bool { return r != ' ' && r != '\t' }); idx < 0 || strings.Contains(raw[:idx], "\t") {
				return nil, errAt(file, num, "tab in indentation (use spaces)")
			}
		}
		text := stripComment(raw)
		trimmed := strings.TrimRight(text, " \r")
		body := strings.TrimLeft(trimmed, " ")
		if body == "" {
			continue
		}
		if body == "---" {
			if len(lines) > 0 {
				return nil, errAt(file, num, "multi-document streams are not supported")
			}
			continue
		}
		lines = append(lines, srcLine{indent: len(trimmed) - len(body), text: body, num: num})
	}
	if len(lines) == 0 {
		return nil, errAt(file, 0, "empty document")
	}
	n, next, err := parseBlock(file, lines, 0)
	if err != nil {
		return nil, err
	}
	if next != len(lines) {
		return nil, errAt(file, lines[next].num, "unexpected content (indentation does not match any open block)")
	}
	return n, nil
}

// stripComment removes a trailing `# comment`, honoring quotes.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' '):
			return s[:i]
		}
	}
	return s
}

// parseBlock parses the block starting at lines[start]; every line of
// the block has the same indentation as lines[start], and the block
// ends at the first line indented less. Returns the node and the index
// of the first line after the block.
func parseBlock(file string, lines []srcLine, start int) (*node, int, error) {
	base := lines[start].indent
	if strings.HasPrefix(lines[start].text, "- ") || lines[start].text == "-" {
		return parseSequence(file, lines, start, base)
	}
	return parseMapping(file, lines, start, base)
}

func parseSequence(file string, lines []srcLine, start, base int) (*node, int, error) {
	n := &node{kind: seqNode, line: lines[start].num}
	i := start
	for i < len(lines) && lines[i].indent == base {
		ln := lines[i]
		if !strings.HasPrefix(ln.text, "- ") && ln.text != "-" {
			return nil, 0, errAt(file, ln.num, "expected another sequence item (`- ...`) at this indentation")
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " ")
		if rest == "" {
			// `-` alone: the item is the indented block below.
			if i+1 >= len(lines) || lines[i+1].indent <= base {
				return nil, 0, errAt(file, ln.num, "empty sequence item")
			}
			item, next, err := parseBlock(file, lines, i+1)
			if err != nil {
				return nil, 0, err
			}
			n.items = append(n.items, item)
			i = next
			continue
		}
		flow := strings.HasPrefix(rest, "[") || strings.HasPrefix(rest, "{")
		if _, _, ok := splitKey(rest); ok && !flow {
			// `- key: ...`: a mapping item whose first entry is inline.
			// Re-enter the mapping parser with the item's text treated as
			// a line at the key's actual column; following lines of the
			// same item sit at that deeper indentation.
			itemIndent := base + (len(ln.text) - len(rest))
			sub := []srcLine{{indent: itemIndent, text: rest, num: ln.num}}
			j := i + 1
			for j < len(lines) && lines[j].indent >= itemIndent {
				sub = append(sub, lines[j])
				j++
			}
			item, next, err := parseMapping(file, sub, 0, itemIndent)
			if err != nil {
				return nil, 0, err
			}
			if next != len(sub) {
				return nil, 0, errAt(file, sub[next].num, "unexpected indentation inside sequence item")
			}
			n.items = append(n.items, item)
			i = j
			continue
		}
		sc, err := parseInline(file, ln.num, rest)
		if err != nil {
			return nil, 0, err
		}
		n.items = append(n.items, sc)
		i++
	}
	if i < len(lines) && lines[i].indent > base {
		return nil, 0, errAt(file, lines[i].num, "unexpected indentation (deeper than the open sequence)")
	}
	return n, i, nil
}

func parseMapping(file string, lines []srcLine, start, base int) (*node, int, error) {
	n := &node{kind: mapNode, line: lines[start].num}
	i := start
	for i < len(lines) && lines[i].indent == base {
		ln := lines[i]
		key, rest, ok := splitKey(ln.text)
		if !ok {
			return nil, 0, errAt(file, ln.num, "expected `key: value` (got %q)", ln.text)
		}
		for _, existing := range n.keys {
			if existing == key {
				return nil, 0, errAt(file, ln.num, "duplicate key %q", key)
			}
		}
		var val *node
		if rest == "" {
			if i+1 < len(lines) && lines[i+1].indent > base {
				child, next, err := parseBlock(file, lines, i+1)
				if err != nil {
					return nil, 0, err
				}
				val = child
				n.keys = append(n.keys, key)
				n.keyLines = append(n.keyLines, ln.num)
				n.vals = append(n.vals, val)
				i = next
				continue
			}
			val = &node{kind: scalarNode, line: ln.num, scalar: ""}
		} else {
			v, err := parseInline(file, ln.num, rest)
			if err != nil {
				return nil, 0, err
			}
			val = v
		}
		n.keys = append(n.keys, key)
		n.keyLines = append(n.keyLines, ln.num)
		n.vals = append(n.vals, val)
		i++
	}
	if i < len(lines) && lines[i].indent > base {
		return nil, 0, errAt(file, lines[i].num, "unexpected indentation (no open block at this depth)")
	}
	return n, i, nil
}

// splitKey splits `key: value` / `key:`; the key may be quoted. ok is
// false when the line has no top-level unquoted colon-space separator.
func splitKey(s string) (key, rest string, ok bool) {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '\'' || c == '"':
			quote = c
		case c == ':':
			if i+1 == len(s) {
				return unquoteScalar(strings.TrimSpace(s[:i])), "", i > 0
			}
			if s[i+1] == ' ' {
				return unquoteScalar(strings.TrimSpace(s[:i])), strings.TrimSpace(s[i+1:]), i > 0
			}
		}
	}
	return "", "", false
}

// parseInline parses an inline value: a scalar, `[a, b]`, or `{k: v}`.
func parseInline(file string, num int, s string) (*node, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "["):
		if !strings.HasSuffix(s, "]") {
			return nil, errAt(file, num, "unterminated flow sequence %q", s)
		}
		n := &node{kind: seqNode, line: num}
		for _, part := range splitFlow(s[1 : len(s)-1]) {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			n.items = append(n.items, &node{kind: scalarNode, line: num, scalar: unquoteScalar(part)})
		}
		return n, nil
	case strings.HasPrefix(s, "{"):
		if !strings.HasSuffix(s, "}") {
			return nil, errAt(file, num, "unterminated flow mapping %q", s)
		}
		n := &node{kind: mapNode, line: num}
		for _, part := range splitFlow(s[1 : len(s)-1]) {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			key, rest, ok := splitKey(part)
			if !ok {
				// Allow `key:value` (no space) inside flow mappings.
				if k, v, found := strings.Cut(part, ":"); found {
					key, rest, ok = unquoteScalar(strings.TrimSpace(k)), strings.TrimSpace(v), true
				}
			}
			if !ok || key == "" {
				return nil, errAt(file, num, "bad flow mapping entry %q", part)
			}
			for _, existing := range n.keys {
				if existing == key {
					return nil, errAt(file, num, "duplicate key %q", key)
				}
			}
			n.keys = append(n.keys, key)
			n.keyLines = append(n.keyLines, num)
			n.vals = append(n.vals, &node{kind: scalarNode, line: num, scalar: unquoteScalar(rest)})
		}
		return n, nil
	default:
		return &node{kind: scalarNode, line: num, scalar: unquoteScalar(s)}, nil
	}
}

// splitFlow splits a flow-collection body on top-level commas.
func splitFlow(s string) []string {
	var out []string
	var quote byte
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else if c == '\\' && quote == '"' {
				i++
			}
		case c == '\'' || c == '"':
			quote = c
		case c == ',':
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}

// unquoteScalar strips one level of matched quotes, handling the two
// YAML quote styles (`”` escaping in single quotes, backslash escapes
// in double quotes).
func unquoteScalar(s string) string {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'")
	}
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		body := s[1 : len(s)-1]
		var b strings.Builder
		for i := 0; i < len(body); i++ {
			c := body[i]
			if c == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				default:
					b.WriteByte(body[i])
				}
				continue
			}
			b.WriteByte(c)
		}
		return b.String()
	}
	return s
}
