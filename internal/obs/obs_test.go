package obs

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRendering(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("widgets_total", "Widgets made.")
	c.Inc()
	c.Add(4)
	g := reg.Gauge("depth", "Queue depth.")
	g.Set(3)
	g.Dec()
	reg.GaugeFunc("temp_celsius", "Temperature.", func() float64 { return 21.5 })

	var b bytes.Buffer
	reg.WritePrometheus(&b)
	got := b.String()
	want := `# HELP depth Queue depth.
# TYPE depth gauge
depth 2
# HELP temp_celsius Temperature.
# TYPE temp_celsius gauge
temp_celsius 21.5
# HELP widgets_total Widgets made.
# TYPE widgets_total counter
widgets_total 5
`
	if got != want {
		t.Errorf("rendering mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestCounterVecLabels(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("req_total", "Requests.", "route", "code")
	cv.With("/v1/jobs", "200").Add(2)
	cv.With("/v1/jobs", "404").Inc()
	cv.With(`weird"route\`, "200").Inc()

	var b bytes.Buffer
	reg.WritePrometheus(&b)
	got := b.String()
	for _, line := range []string{
		`req_total{route="/v1/jobs",code="200"} 2`,
		`req_total{route="/v1/jobs",code="404"} 1`,
		`req_total{route="weird\"route\\",code="200"} 1`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("output lacks %q:\n%s", line, got)
		}
	}
	// Same label values must hit the same series.
	if v := cv.With("/v1/jobs", "200").Value(); v != 2 {
		t.Errorf("series not shared: got %d", v)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	got := b.String()
	want := `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 2
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="10"} 4
lat_seconds_bucket{le="+Inf"} 5
lat_seconds_sum 102.65
lat_seconds_count 5
`
	if got != want {
		t.Errorf("histogram mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestConcurrentWritesRace(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n_total", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h_seconds", "", nil)
	cv := reg.CounterVec("v_total", "", "k")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.01)
				cv.With("a").Inc()
			}
		}()
	}
	var b bytes.Buffer
	reg.WritePrometheus(&b) // scrape while writing
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter: got %d, want 8000", got)
	}
	if got := h.Count(); got != 8000 {
		t.Errorf("histogram count: got %d, want 8000", got)
	}
}

func TestRegisterRuntimeFamilies(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	got := b.String()
	for _, fam := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_sys_bytes",
		"go_gc_cycles_total", "go_gc_pause_seconds_total", "process_uptime_seconds"} {
		if !strings.Contains(got, "# TYPE "+fam+" ") {
			t.Errorf("runtime families lack %s", fam)
		}
	}
}

func TestNewLoggerLevelsAndFormats(t *testing.T) {
	var b bytes.Buffer
	l, err := NewLogger(&b, LogConfig{Level: "warn", Format: "json"})
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept", "k", 1)
	out := b.String()
	if strings.Contains(out, "dropped") {
		t.Errorf("info line passed a warn-level logger: %s", out)
	}
	if !strings.Contains(out, `"msg":"kept"`) || !strings.Contains(out, `"k":1`) {
		t.Errorf("json line malformed: %s", out)
	}
	if _, err := NewLogger(&b, LogConfig{Level: "loud"}); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(&b, LogConfig{Format: "xml"}); err == nil {
		t.Error("bad format accepted")
	}
}

func TestInstrumentMiddleware(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, "test")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ok", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("hi"))
	})
	mux.HandleFunc("GET /fail", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusTeapot)
	})
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	h := Instrument(mux, hm, logger, MuxRoute(mux))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id == "" {
		t.Error("no X-Request-Id on response")
	}
	resp, err = http.Get(ts.URL + "/fail")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := hm.Requests("GET /ok", "GET", "200").Value(); got != 1 {
		t.Errorf("ok counter: got %d, want 1", got)
	}
	if got := hm.Requests("GET /fail", "GET", "418").Value(); got != 1 {
		t.Errorf("teapot counter: got %d, want 1", got)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "route=\"GET /ok\"") || !strings.Contains(logs, "status=418") {
		t.Errorf("request log lines missing fields:\n%s", logs)
	}
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `test_http_request_seconds_count{route="GET /ok"} 1`) {
		t.Errorf("latency histogram not recorded:\n%s", b.String())
	}
}
