package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	fascia "repro"
	"repro/internal/serve"
)

// service is an in-process serve.Server behind a loopback HTTP listener,
// plus the client the load comes from (at most nproc connections).
type service struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{} // closed when the HTTP server has stopped
	url    string
	client *http.Client
	tr     *tracer // sink of the handler spans; nil when untraced
}

// Headers that carry a traced request's job and parent span to the
// handler wrapper.
const (
	hdrJob  = "Perfbench-Job"
	hdrSpan = "Perfbench-Span"
)

// startService builds the server with a nproc-worker budget in one run
// slot, so local runs queue in the scheduler rather than share the CPUs,
// registers g as graph name, and starts serving on a loopback port.
func startService(nproc int, name string, g *fascia.Graph, tr *tracer, id int64) (*service, error) {
	s := &service{
		srv:  serve.New(serve.Config{WorkerBudget: nproc, MaxConcurrent: 1, Logf: func(string, ...any) {}}),
		done: make(chan struct{}),
		tr:   tr,
	}
	sp := tr.begin(id, -1, "serve.registry_add", name)
	_, err := s.srv.Registry().Add(name, g)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	s.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
	}
	// Warm-up: one round trip, so the first timed query finds the
	// server accepting.
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s, nil
}

// ServeHTTP wraps the server's handler in a serve.handler span when the
// request carries a traced job.
func (s *service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	job, errJ := strconv.ParseInt(r.Header.Get(hdrJob), 10, 64)
	parent, errS := strconv.Atoi(r.Header.Get(hdrSpan))
	if s.tr == nil || errJ != nil || errS != nil {
		s.srv.ServeHTTP(w, r)
		return
	}
	sp := s.tr.begin(job, parent, "serve.handler", "")
	s.srv.ServeHTTP(w, r)
	s.tr.end(sp)
}

// close stops the HTTP server and drains the counting service.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Drain(ctx)
	s.client.CloseIdleConnections()
}

// countResult is one /v1/count exchange.
type countResult struct {
	resp   serve.CountResponse
	status int
	rtt    time.Duration // client-side round trip (send to body read)
}

// count posts req, recording serve.encode, serve.roundtrip and
// serve.decode spans under parent.
func (s *service) count(tr *tracer, id int64, parent int, req serve.CountRequest) (countResult, error) {
	var out countResult
	sp := tr.begin(id, parent, "serve.encode", "")
	body, err := json.Marshal(req)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	sp = tr.begin(id, parent, "serve.roundtrip", "")
	t0 := time.Now()
	raw, status, err := s.post(body, id, sp)
	out.rtt = time.Since(t0)
	tr.end(sp)
	out.status = status
	if err != nil {
		return out, err
	}
	sp = tr.begin(id, parent, "serve.decode", "")
	defer tr.end(sp)
	if status != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &out.resp); err != nil {
		return out, fmt.Errorf("decode response: %w", err)
	}
	return out, nil
}

func (s *service) post(body []byte, id int64, span int) ([]byte, int, error) {
	hreq, err := http.NewRequest(http.MethodPost, s.url+"/v1/count", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		hreq.Header.Set(hdrJob, strconv.FormatInt(id, 10))
		hreq.Header.Set(hdrSpan, strconv.Itoa(span))
	}
	resp, err := s.client.Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return raw, resp.StatusCode, nil
}

// checkResponse requires a complete answer of n iterations whose count is
// bit-identical to the mean of ref[lo:lo+n].
func checkResponse(r serve.CountResponse, ref []float64, lo, n int) error {
	if r.Partial {
		return fmt.Errorf("partial result: %s", r.Error)
	}
	return checkEstimate(r.Count, r.Iterations, ref, lo, n)
}

// countingListener counts the bytes read and written on every accepted
// connection.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
