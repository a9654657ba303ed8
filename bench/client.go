package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"nord/internal/fleet"
	"nord/internal/serve"
)

// apiClient is the benchmark's view of nordserved: what a sweep script or
// the search driver does over HTTP, one keep-alive connection per client.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// submitReply is the POST /v1/jobs and /v1/search response.
type submitReply struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
}

func terminal(state string) bool { return state == "done" || state == "failed" || state == "canceled" }

// post submits body to path and decodes the reply; a status other than
// 200 or 202 (a 429 refusal, a 400) is an error.
func (c *apiClient) post(path string, body []byte) (submitReply, error) {
	var out submitReply
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return out, fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// waitDone follows /v1/jobs/{id}/events to the terminal line.
func (c *apiClient) waitDone(id string) error {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var line struct {
			Done  bool   `json:"done"`
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("events %s: %w", id, err)
		}
		if line.Done {
			if line.State != "done" {
				return fmt.Errorf("job %s ended %s: %s", id, line.State, line.Error)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events %s: stream ended without a terminal line", id)
}

// result fetches a done job's payload.
func (c *apiClient) result(id string) (json.RawMessage, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st struct {
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("GET job %s: %w", id, err)
	}
	if st.State != "done" {
		return nil, fmt.Errorf("job %s is %s: %s", id, st.State, st.Error)
	}
	return st.Result, nil
}

// runJob is one closed-loop operation: submit, follow the event stream to
// done (skipped when the submission is answered from cache), fetch the
// result. Each HTTP round trip is a span on k.
func (c *apiClient) runJob(k *track, path string, op int64, body []byte) (payload json.RawMessage, cached bool, err error) {
	k.begin("bench.job", path, op)
	defer k.end()
	k.begin("serve.http.submit", "", op)
	sub, err := c.post(path, body)
	k.end()
	if err != nil {
		return nil, false, err
	}
	if !terminal(sub.State) {
		k.begin("serve.http.events", "", op)
		err = c.waitDone(sub.ID)
		k.end()
		if err != nil {
			return nil, false, err
		}
	}
	k.begin("serve.http.result", "", op)
	payload, err = c.result(sub.ID)
	k.end()
	return payload, sub.Cached, err
}

// scrape reads /metrics into name{labels} -> value.
func (c *apiClient) scrape() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// service is a booted nordserved equivalent: serve.Server behind an
// httptest listener, in local mode or as a journaled fleet coordinator
// with in-process workers.
type service struct {
	srv *serve.Server
	ts  *httptest.Server
	url string

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

// startLocal boots the single-process service.
func startLocal(cfg serve.Config) (*service, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &service{srv: srv, ts: ts, url: ts.URL}, nil
}

// startFleet boots a coordinator with an fsync'd journal and a disk cache
// under dir, plus two one-slot workers that reach it (and its cache tier)
// over loopback HTTP. It returns once both workers are registered, so no
// job falls back to the coordinator's local pool.
func startFleet(dir string) (*service, error) {
	journal, err := fleet.OpenJournal(filepath.Join(dir, "journal"), fleet.JournalOptions{})
	if err != nil {
		return nil, err
	}
	var coord *fleet.Coordinator
	srv, err := serve.New(serve.Config{
		CacheDir: filepath.Join(dir, "cache"),
		Dispatcher: func(s *serve.Server) serve.Dispatcher {
			coord = fleet.NewCoordinator(s, fleet.Options{Journal: journal})
			return coord
		},
	})
	if err != nil {
		_ = journal.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/fleet/", coord.Handler())
	mux.Handle("/", srv.Handler())
	ts := httptest.NewServer(mux)
	s := &service{srv: srv, ts: ts, url: ts.URL}

	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for i := 1; i <= 2; i++ {
		w, err := fleet.NewWorker(fleet.WorkerOptions{Coordinator: ts.URL, ID: fmt.Sprintf("bench-w%d", i), Slots: 1, Seed: int64(i)})
		if err != nil {
			s.stop()
			return nil, err
		}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			_ = w.Run(ctx) // returns ctx.Err() once stopped
		}()
	}
	c := newAPIClient(ts.URL)
	defer c.close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := c.scrape()
		if err == nil && m["nord_fleet_workers_live"] == 2 {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("fleet workers did not register within 10s (last scrape error: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop shuts the workers down first (they unregister while the listener
// is still up), then the listener, then drains the server.
func (s *service) stop() {
	if s.stopWorkers != nil {
		s.stopWorkers()
		s.workers.Wait()
	}
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // nothing is queued by now; a timeout only means stragglers were canceled
}
