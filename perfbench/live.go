package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/server"
)

// servingGeometry is wmserve's default sketch: width 4096, depth 1, heap
// 2048, the paper's uniformly-best AWM configuration.
func servingGeometry() core.Config {
	return core.Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 42}
}

func servingOptions() server.Options {
	return server.Options{
		Backend: server.BackendSharded,
		Config:  servingGeometry(),
		Sharded: core.ShardedOptions{Workers: runtime.GOMAXPROCS(0)},
	}
}

// liveServer is one in-process server on loopback listeners.
type liveServer struct {
	srv     *server.Server
	hs      *http.Server
	ln      net.Listener
	binLn   net.Listener // nil without the binary listener
	base    string       // http://host:port
	binAddr string
	wg      sync.WaitGroup
}

// startServer builds a server and starts its HTTP listener, and its binary
// listener when bin is set. handler, when non-nil, wraps the server's HTTP
// handler (the benchmark's tests plant faults with it).
func startServer(opt server.Options, bin bool, handler func(http.Handler) http.Handler) (*liveServer, error) {
	srv, err := server.New(opt)
	if err != nil {
		return nil, err
	}
	s := &liveServer{srv: srv}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv
	if handler != nil {
		h = handler(h)
	}
	s.hs = &http.Server{Handler: h}
	s.base = "http://" + s.ln.Addr().String()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.hs.Serve(s.ln) // returns http.ErrServerClosed on close
	}()
	if bin {
		if s.binLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			s.close()
			return nil, err
		}
		s.binAddr = s.binLn.Addr().String()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = s.srv.ServeBin(s.binLn) // returns nil once the listener closes
		}()
	}
	return s, nil
}

// close stops the listeners, waits for their goroutines and shuts the
// backend down. Clients must be closed first.
func (s *liveServer) close() {
	_ = s.hs.Close()
	if s.binLn != nil {
		_ = s.binLn.Close()
	}
	s.wg.Wait()
	_ = s.srv.Close()
}

// httpClient returns a client holding at most one keep-alive connection.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// call sends one request and decodes a 200 response's JSON body into out
// (when non-nil). It returns the request and response body sizes.
func call(c *http.Client, method, url string, body []byte, out interface{}) (int, int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return len(body), 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return len(body), len(b), err
	}
	if resp.StatusCode != http.StatusOK {
		return len(body), len(b), &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(b))}
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return len(body), len(b), &parseError{err: err}
		}
	}
	return len(body), len(b), nil
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

type parseError struct{ err error }

func (e *parseError) Error() string { return "unparseable response: " + e.err.Error() }

// isAnswerError reports whether err is a wrong answer from the server (a
// non-200 status or a body that does not parse) rather than a transport
// failure.
func isAnswerError(err error) bool {
	var se *statusError
	var pe *parseError
	return errors.As(err, &se) || errors.As(err, &pe)
}

func jsonBody(v interface{}) ([]byte, error) { return json.Marshal(v) }

func readAllClose(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// scrape reads /metrics into series → value, keyed by the series exactly
// as exposed (name{label="value",...}).
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad exposition line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histMeanMs is a scraped histogram's mean in milliseconds (0 when empty).
func histMeanMs(m map[string]float64, name, labels string) float64 {
	count := m[name+"_count"+labels]
	if count == 0 {
		return 0
	}
	return 1e3 * m[name+"_sum"+labels] / count
}
