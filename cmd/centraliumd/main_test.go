package main

// Flag parsing and boot-time recovery for the daemon binary.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"centralium/internal/server"
	"centralium/internal/store"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if o.addr != ":8080" || o.workers != 4 || o.queue != 64 || o.cache != 8 || o.memo != 256 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if o.timeout != 30*time.Second || o.drainT != 60*time.Second {
		t.Fatalf("duration defaults wrong: %+v", o)
	}
	if o.dataDir != "" || o.fsync != "always" || o.compact != 8 {
		t.Fatalf("durability defaults wrong: %+v", o)
	}
	if p, err := o.syncPolicy(); err != nil || p != store.SyncAlways {
		t.Fatalf("default sync policy = %v, %v", p, err)
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	o, err := parseFlags([]string{
		"-addr", "127.0.0.1:9999", "-workers", "2", "-queue", "5",
		"-data-dir", "/tmp/x", "-fsync", "interval", "-compact-segments", "3",
		"-timeout", "5s",
	})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if o.addr != "127.0.0.1:9999" || o.workers != 2 || o.queue != 5 || o.timeout != 5*time.Second {
		t.Fatalf("overrides lost: %+v", o)
	}
	if o.dataDir != "/tmp/x" || o.compact != 3 {
		t.Fatalf("durability overrides lost: %+v", o)
	}
	if p, err := o.syncPolicy(); err != nil || p != store.SyncInterval {
		t.Fatalf("sync policy = %v, %v", p, err)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	cases := [][]string{
		{"-fsync", "sometimes"},
		{"-no-such-flag"},
		{"positional"},
	}
	for _, args := range cases {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

func TestBuildWithoutDataDirServesInMemory(t *testing.T) {
	o, err := parseFlags([]string{"-workers", "1"})
	if err != nil {
		t.Fatal(err)
	}
	srv, st, err := build(o)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if st != nil {
		t.Fatalf("in-memory build opened a store")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &server.Client{BaseURL: ts.URL}
	h, err := c.Healthz(context.Background())
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %v %v", h, err)
	}
}

// TestBuildRecoversOnBoot is the binary-level recovery check: a daemon
// built on a data dir with a half-finished plan resumes it, and the
// rebuilt daemon reports what it recovered.
func TestBuildRecoversOnBoot(t *testing.T) {
	dir := t.TempDir()
	o, err := parseFlags([]string{"-data-dir", dir, "-workers", "1"})
	if err != nil {
		t.Fatal(err)
	}

	srv1, st1, err := build(o)
	if err != nil {
		t.Fatalf("first build: %v", err)
	}
	if st1 == nil {
		t.Fatalf("durable build did not open a store")
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := &server.Client{BaseURL: ts1.URL}
	req := &server.PlanRequest{Scenario: "fig10", Seed: 1, Beam: 2, RandomCands: -1, MaxLevels: 1}
	resp, err := c1.Plan(context.Background(), req)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if resp.Done {
		t.Fatalf("one stepped level finished the search; cannot test resumption")
	}
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	srv2, st2, err := build(o)
	if err != nil {
		t.Fatalf("rebuild on data dir: %v", err)
	}
	defer st2.Close()
	if plans, _, _ := srv2.Recovered(); plans != 1 {
		t.Fatalf("recovered %d plans, want 1", plans)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := &server.Client{BaseURL: ts2.URL}
	next, err := c2.Plan(context.Background(), req)
	if err != nil {
		t.Fatalf("resumed plan: %v", err)
	}
	if next.PlanID != resp.PlanID {
		t.Fatalf("restart changed the plan ID: %s vs %s", next.PlanID, resp.PlanID)
	}
	if next.Level != resp.Level+1 {
		t.Fatalf("restart did not resume: level %d after %d", next.Level, resp.Level)
	}
}
