package remote

// The request off the per-session path — the heartbeat — goes through
// encoding/json, on storage of its own: it is rare, its body (histograms,
// atlas cells) has no fixed shape worth a hand codec, and it runs on a
// goroutine that must not share the lease loop's buffers.
// TestDesignGuards keeps json.Marshal, json.NewDecoder and json.NewEncoder
// out of worker.go and coordinator.go, so what is here stays here.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
)

// post sends one JSON request, the heartbeat loop's way to the coordinator,
// and reads the reply's status.
func (w *Worker) post(ctx context.Context, path string, in any) error {
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
	return replyError(path, resp)
}

// decodeBody decodes a JSON POST body through encoding/json, rejecting
// other methods: the heartbeat's way in.
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
