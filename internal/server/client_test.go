package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/geo"
)

// TestClientDrainsErrorBodies verifies the keep-alive fix: error
// responses with unread payloads must be drained before close so the
// transport reuses the connection instead of re-dialing on every error.
func TestClientDrainsErrorBodies(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		// Error envelope followed by padding the JSON decoder won't
		// consume: without a drain, Close tears down the connection.
		fmt.Fprint(w, `{"error":"no capacity"}`)
		fmt.Fprint(w, strings.Repeat(" ", 8<<10))
	}))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := client.Place(ctx, geo.Pt(1, 1)); err == nil {
			t.Fatal("422 should error")
		}
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d connections dialed for 5 sequential errors, want 1 (keep-alive broken)", got)
	}
}

func TestStatusErrorMessage(t *testing.T) {
	se := &StatusError{Status: 422, Message: "no capacity"}
	if se.Error() != "status 422: no capacity" {
		t.Errorf("Error() = %q", se.Error())
	}
	bare := &StatusError{Status: 500}
	if bare.Error() != "status 500" {
		t.Errorf("Error() = %q", bare.Error())
	}
}
