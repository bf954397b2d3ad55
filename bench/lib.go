package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"time"

	"centralium/internal/experiments"
	"centralium/internal/fabric"
	"centralium/internal/migrate"
	"centralium/internal/planner"
	"centralium/internal/server"
	"centralium/internal/snapshot"
	"centralium/internal/store"
	"centralium/internal/topo"
)

// fabricSeed is the emulator's jitter seed on the library workloads. It
// is a constant of the scenario, not a benchmark input: the converged
// event count moves ±4% with it (87k–95k events over 24 seeds on the
// medium fabric), which would read as run-to-run noise on every metric.
// The benchmark seed instead permutes which rack owns which prefix — a
// different routing table every seed, the same 86,880 events. 42 is the
// seed BenchmarkConvergence and results/BENCH_*.json use.
const fabricSeed = 42

func hashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}

func scaleParams(quick bool) topo.FabricParams {
	if quick {
		return experiments.ConvergenceScales()[0].Params
	}
	return experiments.ConvergenceScales()[1].Params
}

func rackPrefix(rsw *topo.Device) netip.Prefix {
	return netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", rsw.Pod, rsw.Index%256))
}

// rackAssignment draws which rack's prefix each RSW originates.
func rackAssignment(rng *rand.Rand, params topo.FabricParams) []int {
	return rng.Perm(len(topo.BuildFabric(params).ByLayer(topo.LayerRSW)))
}

// coldConverge is the bulk-propagation op: a fresh fabric, the backbone
// default route at every EB, one rack prefix per RSW, converge.
func coldConverge(tr *tracer, params topo.FabricParams, assign []int, opts fabric.Options) (*fabric.Network, int64) {
	end := tr.span("topo.build")
	tp := topo.BuildFabric(params)
	end()
	end = tr.span("fabric.new")
	n := fabric.New(tp, opts)
	end()
	end = tr.span("fabric.originate")
	for _, eb := range tp.ByLayer(topo.LayerEB) {
		n.OriginateAt(eb.ID, migrate.DefaultRoute, []string{migrate.BackboneCommunity}, 0)
	}
	rsws := tp.ByLayer(topo.LayerRSW)
	for i, rsw := range rsws {
		n.OriginateAt(rsw.ID, rackPrefix(rsws[assign[i]]), nil, 0)
	}
	end()
	end = tr.span("fabric.converge")
	events := n.Converge()
	end()
	return n, events
}

func fingerprintOf(tr *tracer, n *fabric.Network) (*snapshot.Snapshot, string, error) {
	end := tr.span("snapshot.capture")
	snap, err := snapshot.Capture(n)
	end()
	if err != nil {
		return nil, "", err
	}
	end = tr.span("snapshot.fingerprint")
	fp, err := snap.Fingerprint()
	end()
	return snap, fp, err
}

// base is one warm scenario base a daemon workload posts against.
type base struct {
	scenario string
	seed     int64
}

// scenarioBases are the (scenario, seed) pairs the daemon workloads use.
// The scenario seed feeds fabric jitter and planner candidate generation
// and moves the cost of a plan by a factor of two (fig10, beam 2: 104 ms
// at seed 3, 276 ms at seed 1), so it is fixed here and the benchmark
// seed draws what the requests ask of these bases instead.
func scenarioBases() []base {
	var out []base
	for _, sc := range planner.ScenarioNames() {
		out = append(out, base{sc, 1})
	}
	return out
}

// daemon is one centraliumd instance on a loopback listener, and the one
// client connection the closed loop uses.
type daemon struct {
	srv *server.Server
	st  *store.Store
	hs  *http.Server
	ln  net.Listener
	url string
	hc  *http.Client
}

// bootDaemon starts a daemon. With a data directory it is durable
// (fsync on every append, the store default) and recovers whatever the
// directory holds; without one it is in-memory.
func bootDaemon(dir string) (*daemon, error) {
	d := &daemon{}
	// PlanStoreSize also bounds the executions a daemon holds, and boot
	// recovery keeps only that many of the recorded ones (whichever its
	// map iteration reaches last). A round finishes 140 campaigns; with
	// the default of 32 a replay after restart would re-run an evicted
	// campaign from its first wave instead of serving the recorded final.
	cfg := server.Config{Workers: 2, PlanStoreSize: 256}
	var err error
	if dir != "" {
		if d.st, err = store.Open(dir, store.Options{}); err != nil {
			return nil, err
		}
		cfg.Store = d.st
		d.srv, err = server.Open(cfg)
	} else {
		d.srv = server.New(cfg)
	}
	if err == nil {
		d.ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		if d.st != nil {
			d.st.Close()
		}
		return nil, err
	}
	d.url = "http://" + d.ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go d.hs.Serve(d.ln) // returns when stop closes the server
	d.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return d, nil
}

// stop drains the daemon, closes its listener and connection, and closes
// the store. It returns once the serving goroutine's listener is gone.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	d.hc.CloseIdleConnections()
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if d.st != nil {
		if cerr := d.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// call sends one request and returns the response body. Anything but a
// 200 is an error: a shed (429), expired (504) or rejected request is a
// failed op, never a fast one.
func (d *daemon) call(method, path string, req any) ([]byte, error) {
	var rd io.Reader
	if req != nil {
		payload, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(payload)
	}
	hreq, err := http.NewRequest(method, d.url+path, rd)
	if err != nil {
		return nil, err
	}
	if req != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (d *daemon) post(path string, req any) ([]byte, error) {
	return d.call(http.MethodPost, path, req)
}

// warm builds every scenario base, so no measured op pays a cold build.
func (d *daemon) warm(bases []base) error {
	for _, b := range bases {
		if _, err := d.post("/v1/whatif", &server.WhatIfRequest{Scenario: b.scenario, Seed: b.seed, NoMemo: true}); err != nil {
			return err
		}
	}
	return nil
}

func (d *daemon) metrics() (*server.MetricsSnapshot, error) {
	body, err := d.call(http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	var m server.MetricsSnapshot
	return &m, json.Unmarshal(body, &m)
}

// freshDurable boots a durable daemon on a new empty data directory and
// warms its bases: the per-round state of the plan and execute workloads,
// whose identities finish and would answer from their recorded finals on
// a second pass.
func freshDurable(e *env, bases []base) (*daemon, string, error) {
	dir, err := e.newDir()
	if err != nil {
		return nil, "", err
	}
	d, err := bootDaemon(dir)
	if err != nil {
		return nil, "", err
	}
	if err := d.warm(bases); err != nil {
		d.stop()
		return nil, "", err
	}
	return d, dir, nil
}
