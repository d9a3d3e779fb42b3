package remote

// The requests off the per-session path — heartbeats, class queries — go
// through encoding/json, each on storage of its own: they are rare, their
// bodies (histograms, atlas cells) have no fixed shape worth a hand codec,
// and they run on goroutines that must not share the lease loop's buffers.
// ci.sh keeps json.Marshal, json.NewDecoder and json.NewEncoder out of
// worker.go and coordinator.go, so what is here stays here.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
)

// post sends one JSON request: the heartbeat loop's and the prefix filter's
// way to the coordinator. out may be nil when only the status matters.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := replyError(path, resp); err != nil {
		return err
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// decodeBody decodes a JSON POST body through encoding/json, rejecting
// other methods: the way in for the requests off the per-session path
// (heartbeats, class queries).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := postBody(w, r)
	if !ok {
		return false
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		bodyError(w, err)
		return false
	}
	return true
}

// writeJSON is decodeBody's way out.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
