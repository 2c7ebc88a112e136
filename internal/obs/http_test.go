package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

// TestServeDebug: the debug endpoint serves a live registry snapshot at
// /metrics and the pprof index, and shuts down cleanly.
func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("pipeline.events_decoded").Add(42)
	addr, shutdown, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v\n%s", err, body)
	}
	if snap.Counters["pipeline.events_decoded"] != 42 {
		t.Fatalf("/metrics snapshot = %+v", snap)
	}

	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}
}

// TestServeDebugBadAddr: a bad listen address fails synchronously.
func TestServeDebugBadAddr(t *testing.T) {
	if _, _, err := ServeDebug("256.256.256.256:99999", nil); err == nil {
		t.Fatal("bad address did not error")
	}
}

// TestServeDebugConcurrent hammers /metrics while writer goroutines update
// the registry — the snapshot path must be race-free (meaningful under
// -race) and every response must parse.
func TestServeDebugConcurrent(t *testing.T) {
	r := NewRegistry()
	addr, shutdown, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hot")
			h := r.Histogram("lat")
			for i := 0; !stop.Load(); i++ {
				c.Inc()
				h.Observe(uint64(i))
			}
		}(w)
	}
	for i := 0; i < 25; i++ {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status %d", i, resp.StatusCode)
		}
		var snap Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("request %d: invalid JSON under load: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestServeDebugShutdownInFlight: shutting the server down while requests
// are in flight must not hang or panic; requests racing the close either
// complete or fail cleanly, and the listener is released.
func TestServeDebugShutdownInFlight(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	addr, shutdown, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				resp, err := http.Get("http://" + addr + "/metrics")
				if err != nil {
					return // connection refused/reset after close: fine
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	close(start)
	shutdown()
	wg.Wait()

	// The port is free again: a second server can bind it.
	_, shutdown2, err := ServeDebug(addr, nil)
	if err != nil {
		t.Fatalf("rebinding %s after shutdown: %v", addr, err)
	}
	shutdown2()
}
