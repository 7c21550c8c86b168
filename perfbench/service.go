package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/foldsvc"
)

// stack is an in-process foldsvc deployment on loopback: two workers
// (indexes 0 and 1) and a coordinator fanning out to them (index 2),
// all with the shipped defaults.
type stack struct {
	daemons []*foldsvc.Server
	servers []*http.Server
	urls    []string
	serving sync.WaitGroup
}

func startStack() (*stack, error) {
	st := &stack{}
	serve := func(cfg foldsvc.Config) error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		d := foldsvc.NewServer(cfg)
		hs := &http.Server{Handler: d}
		st.serving.Add(1)
		go func() {
			defer st.serving.Done()
			hs.Serve(ln) // returns http.ErrServerClosed once close runs
		}()
		st.daemons = append(st.daemons, d)
		st.servers = append(st.servers, hs)
		st.urls = append(st.urls, "http://"+ln.Addr().String())
		return nil
	}
	for i := 0; i < 3; i++ {
		var cfg foldsvc.Config
		if i == 2 {
			cfg.Workers = append([]string(nil), st.urls...)
		}
		if err := serve(cfg); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// close drains the daemons, stops every server and waits for them.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, d := range st.daemons {
		d.StartDrain(ctx)
	}
	for _, hs := range st.servers {
		hs.Close()
	}
	st.serving.Wait()
}

// scrape fetches every daemon's /metrics page into sc.
func (st *stack) scrape(sc *scrape) error {
	for _, u := range st.urls {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			return err
		}
		page, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		sc.parse(page)
	}
	return nil
}

// post uploads body to u with plain net/http — no retries, so every
// refusal counts — and returns the response body and its Cache-Status
// header.
func post(u string, body []byte) ([]byte, string, error) {
	resp, err := http.Post(u, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		first, _, _ := strings.Cut(string(data), "\n")
		return nil, "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, first)
	}
	return data, resp.Header.Get("Cache-Status"), nil
}

// serviceProbe sends the workload's trace through a foldsvc stack — a
// coordinator miss (fan-out to the workers' /v1/partial, reduce) and
// hit, then a worker's single-node miss and hit — checks each Report
// against the reference and scrapes the daemons, so the traced run has
// daemon layer numbers on this workload's input.
func serviceProbe(res *result, in *input, query url.Values) error {
	st, err := startStack()
	if err != nil {
		return err
	}
	defer st.close()
	for _, u := range []string{st.urls[2], st.urls[0]} {
		for _, want := range []string{"miss", "hit"} {
			body, cs, err := post(u+"/v1/analyze?"+query.Encode(), in.raw)
			if err == nil && cs != want {
				err = fmt.Errorf("Cache-Status %q, want %q", cs, want)
			}
			if err == nil {
				var d string
				var degraded bool
				if d, degraded, err = bodyDigest(body); err == nil {
					err = in.refCheck(d, degraded)
				}
			}
			res.t.op("probe analyze "+want, err)
		}
	}
	return st.scrape(&res.scrape)
}
