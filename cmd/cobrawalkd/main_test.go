package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{}, // -data is required
		{"-data", t.TempDir(), "-addr", "127.0.0.1:99999"}, // invalid port
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cobrawalk") || !strings.Contains(out.String(), "go1") {
		t.Fatalf("-version output %q, want module and toolchain", out.String())
	}
}

// syncBuffer lets the test read daemon logs while run() writes them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestBootServeShutdown boots the daemon on an ephemeral port, hits
// /v1/healthz over real TCP, and shuts it down with SIGTERM — the whole
// cmd wrapper, end to end.
func TestBootServeShutdown(t *testing.T) {
	logs := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-data", t.TempDir()}, io.Discard, logs)
	}()

	// The daemon logs its realised address once listening.
	addrRe := regexp.MustCompile(`addr=(http://[0-9.:]+)`)
	var base string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(logs.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v\nlogs:\n%s", err, logs.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened; logs:\n%s", logs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(blob), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, blob)
	}
	// The graph cache counters are served in healthz's "cache" block.
	if !strings.Contains(string(blob), `"cache"`) || !strings.Contains(string(blob), `"hits"`) ||
		!strings.Contains(string(blob), `"evictions"`) {
		t.Fatalf("healthz lacks the cache counters: %s", blob)
	}

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down on SIGINT")
	}
	if !strings.Contains(logs.String(), "shutting down") {
		t.Fatalf("no shutdown log; logs:\n%s", logs.String())
	}
	// The shutdown line summarises the graph cache counters.
	if !regexp.MustCompile(`cache_hits=\d+ cache_misses=\d+ cache_evictions=\d+`).MatchString(logs.String()) {
		t.Fatalf("shutdown log lacks cache counters; logs:\n%s", logs.String())
	}
}

// TestLogFlagValidation pins that bad -log-level/-log-format values fail
// fast instead of booting a daemon that logs nothing.
func TestLogFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-data", t.TempDir(), "-log-level", "loud"},
		{"-data", t.TempDir(), "-log-format", "xml"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}
