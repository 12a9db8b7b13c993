package statusz

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestHandlerServesJSON(t *testing.T) {
	h := Handler(func() any {
		return map[string]int{"pages": 42}
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var out map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["pages"] != 42 {
		t.Fatalf("body = %v", out)
	}
}

func TestHandlerEncodesFreshSnapshots(t *testing.T) {
	n := 0
	h := Handler(func() any {
		n++
		return map[string]int{"n": n}
	})
	for want := 1; want <= 3; want++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		var out map[string]int
		json.Unmarshal(rec.Body.Bytes(), &out)
		if out["n"] != want {
			t.Fatalf("snapshot %d = %v", want, out)
		}
	}
}

func TestHandlerEncodingError(t *testing.T) {
	h := Handler(func() any { return make(chan int) }) // unencodable
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	// The encoder fails mid-response; the handler must not panic.
}

func TestServeEndToEnd(t *testing.T) {
	srv, addr, err := ServeHandlers("127.0.0.1:0", map[string]func() any{"statusz": func() any {
		return map[string]string{"state": "ok"}
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var out map[string]string
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["state"] != "ok" {
		t.Fatalf("body = %s", body)
	}
}

func TestHandlerCacheControlAndHead(t *testing.T) {
	calls := 0
	h := Handler(func() any { calls++; return map[string]int{"n": calls} })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("HEAD", "/statusz", nil))
	if rec.Body.Len() != 0 {
		t.Errorf("HEAD body = %q, want empty", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("HEAD Content-Type = %q", ct)
	}
	if calls != 1 {
		t.Errorf("HEAD should not take a snapshot; calls = %d", calls)
	}
}

func TestServeMultiRouting(t *testing.T) {
	srv, addr, err := ServeHandlers("127.0.0.1:0", map[string]func() any{
		"statusz": func() any { return map[string]string{"page": "statusz"} },
		"events":  func() any { return map[string]string{"page": "events"} },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()

	get := func(path string) (int, map[string]string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var out map[string]string
		json.Unmarshal(body, &out)
		return resp.StatusCode, out
	}

	if code, out := get("/statusz"); code != 200 || out["page"] != "statusz" {
		t.Errorf("/statusz -> %d %v", code, out)
	}
	if code, out := get("/events"); code != 200 || out["page"] != "events" {
		t.Errorf("/events -> %d %v", code, out)
	}
	// "/" stays an alias for statusz...
	if code, out := get("/"); code != 200 || out["page"] != "statusz" {
		t.Errorf("/ -> %d %v", code, out)
	}
	// ...but unknown paths are 404, not a silent statusz page.
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope -> %d, want 404", code)
	}
}

func TestServeMultiNoStatuszUnknown404(t *testing.T) {
	srv, addr, err := ServeHandlers("127.0.0.1:0", map[string]func() any{
		"events": func() any { return nil },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path -> %d, want 404", resp.StatusCode)
	}
}

func TestServeHandlersRawEndpoint(t *testing.T) {
	raw := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "metric_a 1\n")
	})
	srv, addr, err := ServeHandlers("127.0.0.1:0",
		map[string]func() any{"statusz": func() any { return nil }},
		map[string]http.Handler{"metrics": raw})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "metric_a 1\n" {
		t.Errorf("/metrics body = %q", body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
}

func TestServeHandlersPprofSubtree(t *testing.T) {
	srv, addr, err := ServeHandlers("127.0.0.1:0", nil, PprofHandlers())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || len(body) == 0 {
		t.Errorf("pprof goroutine -> %d, %d bytes", resp.StatusCode, len(body))
	}
}
