package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestInstrumentCountsAndClasses(t *testing.T) {
	reg := NewRegistry("t")
	ok := reg.InstrumentFunc("ok", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("hi"))
	})
	bad := reg.InstrumentFunc("bad", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	})
	for i := 0; i < 3; i++ {
		ok.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/ok", nil))
	}
	bad.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/bad", nil))

	var buf bytes.Buffer
	reg.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		`t_requests_total{endpoint="ok",class="2xx"} 3`,
		`t_requests_total{endpoint="bad",class="4xx"} 1`,
		`t_request_seconds_count{endpoint="ok"} 3`,
		`t_request_seconds_bucket{endpoint="ok",le="+Inf"} 3`,
		"t_rejected_total 0",
		"t_in_flight 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBucketsAreCumulative(t *testing.T) {
	reg := NewRegistry("t")
	cell := reg.endpoint("e")
	cell.observe(200, 50*time.Microsecond) // below first bound
	cell.observe(200, 2*time.Millisecond)  // in the 2.5ms bucket
	cell.observe(200, time.Minute)         // +Inf

	var buf bytes.Buffer
	reg.WriteMetrics(&buf)
	out := buf.String()
	// Cumulative counts must be monotone: first bucket 1, the 0.0025 bucket 2,
	// +Inf 3.
	for _, want := range []string{
		`t_request_seconds_bucket{endpoint="e",le="0.0001"} 1`,
		`t_request_seconds_bucket{endpoint="e",le="0.0025"} 2`,
		`t_request_seconds_bucket{endpoint="e",le="10"} 2`,
		`t_request_seconds_bucket{endpoint="e",le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	var cum []uint64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `t_request_seconds_bucket{endpoint="e"`) {
			var n uint64
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n)
			cum = append(cum, n)
		}
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket counts not monotone: %v", cum)
		}
	}
}

func TestInstrumentConcurrent(t *testing.T) {
	reg := NewRegistry("t")
	h := reg.InstrumentFunc("e", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	reg.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), fmt.Sprintf(`t_requests_total{endpoint="e",class="2xx"} %d`, n)) {
		t.Fatalf("lost counts under concurrency:\n%s", buf.String())
	}
}

func TestGauges(t *testing.T) {
	reg := NewRegistry("t")
	reg.SetGauge("index_sketch_dim", 64)
	reg.SetGauge("index_hull_size", 17)
	var buf bytes.Buffer
	reg.WriteMetrics(&buf)
	for _, want := range []string{"t_index_sketch_dim 64", "t_index_hull_size 17"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing gauge %q:\n%s", want, buf.String())
		}
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	h := AccessLog(logger, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "gone", http.StatusNotFound)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x?y=1", nil))
	id := rec.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id header")
	}
	line := buf.String()
	for _, want := range []string{"id=" + id, "method=GET", `path="/x?y=1"`, "status=404"} {
		if !strings.Contains(line, want) {
			t.Fatalf("access line missing %q: %s", want, line)
		}
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := nextRequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		seen[id] = true
	}
}

func TestLimitInFlight(t *testing.T) {
	reg := NewRegistry("t")
	release := make(chan struct{})
	started := make(chan struct{})
	shed := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, "overloaded", "server overloaded; retry")
	})
	h := reg.LimitInFlight(1, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		w.WriteHeader(http.StatusOK)
	}), shed)
	done := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		done <- rec.Code
	}()
	<-started
	// Second request while the first is in flight: shed with 503.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expected 503, got %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request got %d", code)
	}
	var buf bytes.Buffer
	reg.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "t_rejected_total 1") {
		t.Fatalf("rejection not counted:\n%s", buf.String())
	}
}

func TestLimitDisabled(t *testing.T) {
	reg := NewRegistry("t")
	base := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {})
	if got := reg.LimitInFlight(0, base, nil); fmt.Sprintf("%T", got) != fmt.Sprintf("%T", base) {
		t.Fatalf("limit 0 should return the handler unchanged, got %T", got)
	}
}

func TestGaugeFuncLiveAndShadowing(t *testing.T) {
	reg := NewRegistry("t")
	reg.SetGauge("index_generation", 1)
	val := 0.0
	reg.SetGaugeFunc("index_generation", func() float64 { return val })
	reg.SetGaugeFunc("queue_depth", func() float64 { return 3 })

	val = 7
	var buf bytes.Buffer
	reg.WriteMetrics(&buf)
	out := buf.String()
	// The live fn shadows the static gauge of the same name and is
	// re-evaluated at every exposition.
	for _, want := range []string{"t_index_generation 7", "t_queue_depth 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	val = 9
	buf.Reset()
	reg.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "t_index_generation 9") {
		t.Fatalf("gauge fn not re-evaluated:\n%s", buf.String())
	}
	// Unregister: static value becomes visible again.
	reg.SetGaugeFunc("index_generation", nil)
	buf.Reset()
	reg.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "t_index_generation 1") {
		t.Fatalf("static gauge not restored after unregister:\n%s", buf.String())
	}
}

func TestLimitInFlightWithCustomReject(t *testing.T) {
	reg := NewRegistry("t")
	release := make(chan struct{})
	started := make(chan struct{})
	reject := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"busy"}}`))
	})
	h := reg.LimitInFlight(1, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
	}), reject)
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	}()
	<-started
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	close(release)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expected 503, got %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"code":"overloaded"`) {
		t.Fatalf("custom reject body not used: %s", rec.Body.String())
	}
	var buf bytes.Buffer
	reg.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "t_rejected_total 1") {
		t.Fatalf("rejection not counted:\n%s", buf.String())
	}
}

func TestWriteErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusConflict, "duplicate_edge", "edge (%d,%d) already present", 3, 4)
	if rec.Code != http.StatusConflict {
		t.Fatalf("status = %d, want 409", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body not an envelope: %v (%s)", err, rec.Body.String())
	}
	if env.Error.Code != "duplicate_edge" || env.Error.Message != "edge (3,4) already present" {
		t.Fatalf("envelope = %+v", env)
	}
}

func TestLabeledGaugeFunc(t *testing.T) {
	reg := NewRegistry("t")
	vals := map[string]float64{"a": 1, "b": 0}
	reg.SetLabeledGaugeFunc("backend_healthy", "backend", "b", func() float64 { return vals["b"] })
	reg.SetLabeledGaugeFunc("backend_healthy", "backend", "a", func() float64 { return vals["a"] })

	var buf bytes.Buffer
	reg.WriteMetrics(&buf)
	out := buf.String()
	if n := strings.Count(out, "# TYPE t_backend_healthy gauge"); n != 1 {
		t.Fatalf("TYPE line emitted %d times:\n%s", n, out)
	}
	aLine := `t_backend_healthy{backend="a"} 1`
	bLine := `t_backend_healthy{backend="b"} 0`
	ai, bi := strings.Index(out, aLine), strings.Index(out, bLine)
	if ai < 0 || bi < 0 {
		t.Fatalf("missing labeled series:\n%s", out)
	}
	if ai > bi {
		t.Fatalf("series not sorted by label value:\n%s", out)
	}

	// Live: re-sampled at every exposition.
	vals["b"] = 1
	buf.Reset()
	reg.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), `t_backend_healthy{backend="b"} 1`) {
		t.Fatalf("labeled gauge not re-evaluated:\n%s", buf.String())
	}

	// Unregistering the last series drops the name entirely.
	reg.SetLabeledGaugeFunc("backend_healthy", "backend", "a", nil)
	reg.SetLabeledGaugeFunc("backend_healthy", "backend", "b", nil)
	buf.Reset()
	reg.WriteMetrics(&buf)
	if strings.Contains(buf.String(), "backend_healthy") {
		t.Fatalf("labeled gauge still exposed after unregister:\n%s", buf.String())
	}
}

func TestLabeledGaugeLabelKeyFixed(t *testing.T) {
	reg := NewRegistry("t")
	reg.SetLabeledGaugeFunc("backend_healthy", "backend", "a", func() float64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Fatal("second label key for the same name should panic")
		}
	}()
	reg.SetLabeledGaugeFunc("backend_healthy", "upstream", "a", func() float64 { return 1 })
}

func TestCounterFunc(t *testing.T) {
	reg := NewRegistry("t")
	val := 2.0
	reg.SetCounterFunc("checkpoints_total", func() float64 { return val })

	var buf bytes.Buffer
	reg.WriteMetrics(&buf)
	out := buf.String()
	if !strings.Contains(out, "# TYPE t_checkpoints_total counter") {
		t.Fatalf("counter not typed as counter:\n%s", out)
	}
	if !strings.Contains(out, "t_checkpoints_total 2") {
		t.Fatalf("counter value missing:\n%s", out)
	}

	// Re-sampled at every exposition.
	val = 5
	buf.Reset()
	reg.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "t_checkpoints_total 5") {
		t.Fatalf("counter fn not re-evaluated:\n%s", buf.String())
	}

	// Unregister removes the series.
	reg.SetCounterFunc("checkpoints_total", nil)
	buf.Reset()
	reg.WriteMetrics(&buf)
	if strings.Contains(buf.String(), "checkpoints_total") {
		t.Fatalf("counter still exposed after unregister:\n%s", buf.String())
	}
}
