package statusz

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"softmem/internal/metrics"
)

// Hardening for the observability endpoints softkv mounts for latency
// attribution: /slowlog and /metrics/history must behave like every
// other statusz JSON page — fresh snapshots, no-store, HEAD without a
// body, and unknown paths a real 404.

func TestServeHandlersSlowlogAndHistory(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.CounterFunc("test_ops_total", "ops", func() int64 { return 5 })
	hist := reg.StartHistory(time.Hour, 8)
	defer hist.Close()

	srv, addr, err := ServeHandlers("127.0.0.1:0", map[string]func() any{
		"slowlog": func() any {
			return []map[string]any{{"cmd": "GET", "total_ns": 12345}}
		},
		"metrics/history": func() any { return hist.Dump() },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()

	for _, path := range []string{"/slowlog", "/metrics/history"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s -> %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q", path, ct)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s Cache-Control = %q, want no-store", path, cc)
		}
		if !json.Valid(body) {
			t.Errorf("GET %s body is not JSON: %q", path, body)
		}
	}

	var dump metrics.HistoryDump
	resp, err := http.Get(base + "/metrics/history")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Snapshots) == 0 || dump.Snapshots[0].Values["test_ops_total"] != 5 {
		t.Errorf("history dump = %+v, want test_ops_total 5", dump)
	}

	// HEAD: headers only, no snapshot body.
	req, _ := http.NewRequest("HEAD", base+"/slowlog", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 0 {
		t.Errorf("HEAD /slowlog body = %q, want empty", body)
	}

	// Unknown paths near the mounts must 404, not silently alias.
	for _, path := range []string{"/slowlogx", "/metrics/histor", "/metrics/history/extra"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s -> %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHistoryEndpointConcurrentScrape mirrors the metrics registry's
// concurrent register+scrape race test one layer up: HTTP scrapes of
// /metrics/history must not race instruments minted at runtime. Run
// under -race by `make race`.
func TestHistoryEndpointConcurrentScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	hist := reg.StartHistory(time.Millisecond, 8)
	defer hist.Close()
	srv, addr, err := ServeHandlers("127.0.0.1:0", map[string]func() any{
		"metrics/history": func() any { return hist.Dump() },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := "http://" + addr.String() + "/metrics/history"

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				resp, err := http.Get(url)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	for i := 0; i < 500; i++ {
		reg.Histogram("test_runtime_ns", "runtime-labeled series",
			metrics.Label{Name: "cmd", Value: strconv.Itoa(i)}).Observe(float64(i))
	}
	close(done)
	wg.Wait()
}
