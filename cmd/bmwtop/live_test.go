package main

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/node"
	"repro/internal/wire"
)

// TestScrapeLiveNode renders one frame from a node assembled by
// node.Start, the assembly bmwd deploys: the rows bmwtop builds from
// metric names must still find them there.
func TestScrapeLiveNode(t *testing.T) {
	n, err := node.Start(node.Config{
		Engine:   engine.Config{Shards: 2, Order: 2, Levels: 8},
		HTTPAddr: "127.0.0.1:0",
		SLO:      "p99<1ns",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Kill()
	c, err := wire.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	load := func() {
		for i := uint64(0); i < 100; i++ {
			if _, err := c.Do([]wire.Op{{Kind: wire.OpPush, Value: i, Meta: i}, {Kind: wire.OpPop}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	hc := &http.Client{Timeout: 5 * time.Second}
	load()
	prev, err := fetchSnapshot(hc, "http://"+n.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	prevAt := time.Now()
	load()
	m, _, _, err := scrape(hc, n.HTTPAddr(), prev, prevAt)
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	render(&frame, m)
	for _, row := range []string{
		"probe: ok=true role=primary",
		"STAGE", "total ", "decode ",
		"SHARD",
		"repl: lag=0 ",
		"slo: p99=",
		"runtime: goroutines=",
	} {
		if !strings.Contains(frame.String(), row) {
			t.Errorf("frame lacks %q", row)
		}
	}
	if t.Failed() {
		t.Logf("frame:\n%s", frame.String())
	}
	for _, s := range m.Stages {
		if s.Label == "total" && s.Rate == 0 {
			t.Error("total stage saw no requests in the window")
		}
	}
}
