package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"
)

// transport performs one HTTP exchange and returns the status and body.
type transport func(method, path string, body []byte) (int, []byte, error)

// httpTransport sends requests over one keep-alive connection to a
// running server.
func httpTransport(base string) transport {
	client := &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
	return func(method, path string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
}

// handlerTransport serves requests in-process through the server's
// handler, with no network in between.
func handlerTransport(h http.Handler) transport {
	return func(method, path string, body []byte) (int, []byte, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// api is one client's view of the server: typed calls over a transport,
// each counted as an attempted operation and timed by kind.
type api struct {
	send      transport
	attempted int64
	// lat holds per-kind latencies in ms: "request" for GET /request and
	// "submit" for each submitting call, single or batch.
	lat map[string][]float64
}

func newAPI(send transport) *api {
	return &api{send: send, lat: map[string][]float64{}}
}

type answerJSON struct {
	Worker string `json:"worker"`
	Task   int    `json:"task"`
	Choice int    `json:"choice"`
}

type taskJSON struct {
	ID          int      `json:"id"`
	Text        string   `json:"text"`
	Choices     []string `json:"choices"`
	GoldenTruth int      `json:"golden_truth"`
}

// statsJSON holds the /stats field the benchmark reads.
type statsJSON struct {
	Answers int64 `json:"answers"`
}

// call sends one request, requires status 200, and decodes the JSON body
// into out when out is non-nil. It returns the raw body.
func (a *api) call(kind, method, path string, in, out any) ([]byte, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, err
		}
	}
	a.attempted++
	start := time.Now()
	code, resp, err := a.send(method, path, body)
	d := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(resp))
	}
	if kind == "request" || kind == "submit" {
		a.lat[kind] = append(a.lat[kind], float64(d)/float64(time.Millisecond))
	}
	if out != nil {
		if err := json.Unmarshal(resp, out); err != nil {
			return nil, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp, nil
}

// publish publishes a campaign and returns its golden task IDs.
func (a *api) publish(c *campaignPlan) ([]int, error) {
	req := struct {
		Tasks []taskJSON `json:"tasks"`
	}{}
	for _, t := range c.tasks {
		golden := -1
		if t.ID%c.goldenEvery == 0 {
			golden = t.Truth
		}
		req.Tasks = append(req.Tasks, taskJSON{ID: t.ID, Text: t.Text, Choices: t.Choices, GoldenTruth: golden})
	}
	var out struct {
		Published int   `json:"published"`
		Golden    []int `json:"golden"`
	}
	if _, err := a.call("publish", http.MethodPost, "/c/"+c.name+"/publish", req, &out); err != nil {
		return nil, err
	}
	if out.Published != len(c.tasks) {
		return nil, fmt.Errorf("publish %s: %d tasks published, want %d", c.name, out.Published, len(c.tasks))
	}
	return out.Golden, nil
}

func (a *api) request(campaign, worker string, k int) ([]int, error) {
	var out struct {
		Tasks []taskJSON `json:"tasks"`
	}
	path := fmt.Sprintf("/c/%s/request?worker=%s&k=%d", campaign, worker, k)
	if _, err := a.call("request", http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	ids := make([]int, len(out.Tasks))
	for i, t := range out.Tasks {
		ids[i] = t.ID
	}
	return ids, nil
}

func (a *api) submit(campaign string, ans answerJSON) error {
	var out struct {
		Status string `json:"status"`
	}
	if _, err := a.call("submit", http.MethodPost, "/c/"+campaign+"/submit", ans, &out); err != nil {
		return err
	}
	if out.Status != "accepted" {
		return fmt.Errorf("submit %v: status %q", ans, out.Status)
	}
	return nil
}

func (a *api) submitBatch(campaign string, answers []answerJSON) error {
	var out struct {
		Accepted int `json:"accepted"`
		Rejected int `json:"rejected"`
	}
	req := struct {
		Answers []answerJSON `json:"answers"`
	}{answers}
	if _, err := a.call("submit", http.MethodPost, "/c/"+campaign+"/submit-batch", req, &out); err != nil {
		return err
	}
	if out.Accepted != len(answers) || out.Rejected != 0 {
		return fmt.Errorf("submit-batch %s: %d accepted, %d rejected of %d", campaign, out.Accepted, out.Rejected, len(answers))
	}
	return nil
}

func (a *api) result(campaign string, task int) (taskResult, error) {
	var out taskResult
	_, err := a.call("result", http.MethodGet, fmt.Sprintf("/c/%s/result?task=%d", campaign, task), nil, &out)
	return out, err
}

// results fetches the final inference and returns the decoded outcomes
// with the raw body.
func (a *api) results(campaign string) ([]taskResult, []byte, error) {
	var out struct {
		Results []taskResult `json:"results"`
	}
	raw, err := a.call("results", http.MethodGet, "/c/"+campaign+"/results", nil, &out)
	return out.Results, raw, err
}

func (a *api) stats(campaign string) (statsJSON, error) {
	var out statsJSON
	_, err := a.call("stats", http.MethodGet, "/c/"+campaign+"/stats", nil, &out)
	return out, err
}
