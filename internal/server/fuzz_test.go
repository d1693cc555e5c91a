package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzPlaceRequestDecode throws arbitrary bodies at POST /v1/requests:
// the decode path must never panic, and every response must be one of
// the statuses the API documents — malformed JSON and non-finite
// destinations are rejected before they can reach the placer.
func FuzzPlaceRequestDecode(f *testing.F) {
	seeds := []string{
		`{"dest":{"x":100,"y":200}}`,
		`{"dest":{"x":1e308,"y":-1e308}}`,
		`{"dest":{"x":null,"y":0}}`,
		`{"dest":"not a point"}`,
		`{"unknown":"field"}`,
		`{"dest":{"x":NaN,"y":0}}`,
		`{`,
		``,
		`[]`,
		"\x00\xff\xfe",
		strings.Repeat(`{"dest":`, 64),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	srv, err := newSingle(newWALPlacer(f))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/requests", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity,
			http.StatusTooManyRequests:
		default:
			t.Fatalf("unexpected status %d for body %q (response %q)",
				rec.Code, body, rec.Body.String())
		}
		if rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json", rec.Header().Get("Content-Type"))
		}
	})
}
