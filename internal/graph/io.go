package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The text format is a simple self-describing edge list:
//
//	graph <name>
//	n <vertex count>
//	<u> <v>        (one undirected edge per line, either order)
//
// Blank lines and lines starting with '#' are ignored. The format is
// deliberately trivial so graphs can be produced and consumed by shell
// tools and other languages.

// Write serialises the graph in the text edge-list format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	name := g.Name()
	if name == "" {
		name = "unnamed"
	}
	if strings.ContainsAny(name, "\n\r") {
		return fmt.Errorf("graph: name %q contains newline", name)
	}
	if _, err := fmt.Fprintf(bw, "graph %s\nn %d\n", name, g.N()); err != nil {
		return err
	}
	var writeErr error
	g.Edges(func(u, v int32) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	return bw.Flush()
}

// Read parses a graph in the text edge-list format produced by Write. Edge
// lines are parsed without allocating, so big lists read at the speed of
// the scan.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	name := ""
	var b *Builder
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		switch {
		case bytes.HasPrefix(line, []byte("graph ")):
			name = string(bytes.TrimSpace(line[len("graph "):]))
		case bytes.HasPrefix(line, []byte("n ")):
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: second \"n <count>\" header", lineNo)
			}
			n, err := strconv.Atoi(string(bytes.TrimSpace(line[len("n "):])))
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex count: %w", lineNo, err)
			}
			if n < 0 {
				return nil, fmt.Errorf("graph: line %d: negative vertex count %d", lineNo, n)
			}
			b = NewBuilder(n, 0)
		default:
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: edge before the \"n <count>\" header", lineNo)
			}
			u, v, err := parseEdge(line)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
			}
			b.AddEdge(u, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	if b == nil {
		return nil, errors.New("graph: missing \"n <count>\" header")
	}
	return b.Build(name)
}

// parseEdge parses a trimmed "u v" edge line: two int32 ids separated by
// any run of whitespace.
func parseEdge(line []byte) (u, v int32, err error) {
	i := indexSpace(line)
	if i < 0 {
		return 0, 0, fmt.Errorf("want 'u v', got %q", line)
	}
	first, second := line[:i], line[i+1:]
	if line[i] >= utf8.RuneSelf || indexSpace(second) >= 0 {
		// A multi-byte or repeated separator, or a third field.
		second = bytes.TrimLeftFunc(line[i:], unicode.IsSpace)
		if indexSpace(second) >= 0 {
			return 0, 0, fmt.Errorf("want 'u v', got %q", line)
		}
	}
	if u, err = parseID(first); err == nil {
		v, err = parseID(second)
	}
	return u, v, err
}

// parseID parses a decimal int32 vertex id with an optional sign, the
// strings strconv.ParseInt(s, 10, 32) accepts. strconv.Atoi's fast path
// for short strings makes it the cheaper parse, and the string conversion
// does not allocate, because strconv copies its input before keeping it
// in an error.
func parseID(b []byte) (int32, error) {
	x, err := strconv.Atoi(string(b))
	if err == nil && x != int(int32(x)) {
		err = fmt.Errorf("%s is out of int32 range", b)
	}
	if err != nil {
		return 0, fmt.Errorf("bad vertex id: %w", err)
	}
	return int32(x), nil
}

// indexSpace is bytes.IndexFunc(b, unicode.IsSpace) with an inline test
// for ASCII bytes, which edge lines are made of.
func indexSpace(b []byte) int {
	for i, c := range b {
		switch {
		case c > ' ' && c < utf8.RuneSelf:
		case c == ' ', '\t' <= c && c <= '\r':
			return i
		case c >= utf8.RuneSelf:
			if j := bytes.IndexFunc(b[i:], unicode.IsSpace); j >= 0 {
				return i + j
			}
			return -1
		}
	}
	return -1
}
