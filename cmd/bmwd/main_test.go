package main

import (
	"flag"
	"io"
	"log/slog"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/node"
	"repro/internal/obs"
)

// flagRow matches one row of DESIGN.md's bmwd flag table:
// | `-name` | `default` | meaning |
var flagRow = regexp.MustCompile("^\\| `-([a-z-]+)` \\| `([^`]*)` \\|")

// The flag table in DESIGN.md §6 "Node assembly" is the documented
// operator surface; adding, dropping or re-defaulting a flag without
// editing it fails here.
func TestFlagsMatchDesignTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "### Node assembly")
	if !ok {
		t.Fatal(`DESIGN.md has no "### Node assembly" subsection`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if m := flagRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = m[2]
		}
	}

	fs := flag.NewFlagSet("bmwd", flag.ContinueOnError)
	registerFlags(fs, new(options))
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := documented[f.Name]
		switch {
		case !ok:
			t.Errorf("flag -%s is not in the DESIGN.md table", f.Name)
		case def != f.DefValue && !(def == `""` && f.DefValue == ""):
			t.Errorf("flag -%s defaults to %q, DESIGN.md says %q", f.Name, f.DefValue, def)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("DESIGN.md documents -%s, which bmwd does not have", name)
	}
}

func parse(t *testing.T, args ...string) *options {
	t.Helper()
	var o options
	fs := flag.NewFlagSet("bmwd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs, &o)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &o
}

func TestConfigFromFlags(t *testing.T) {
	o := parse(t, "-shards", "2", "-m", "4", "-l", "6",
		"-persist", "/p", "-scrub-interval", "1s", "-scrub-rate", "0", "-repair-from", "peer:1",
		"-follow", "prim:1", "-repl-sync", "-gossip-every", "250ms", "-cluster-node", "3",
		"-http", ":1", "-trace-sample", "64", "-incident-dir", "/i", "-slo", "p99<1ns")
	if err := o.resolve(); err != nil {
		t.Fatal(err)
	}
	cfg := o.Config
	want := engine.Config{Shards: 2, Order: 4, Levels: 6}
	if cfg.Engine != want {
		t.Errorf("engine config %+v, want %+v", cfg.Engine, want)
	}
	if cfg.PersistDir != "/p" || cfg.ScrubInterval != time.Second || cfg.ScrubRate != 0 || cfg.RepairFrom != "peer:1" {
		t.Errorf("persist: %+v", cfg)
	}
	if cfg.Follow != "prim:1" || !cfg.ReplSync || cfg.GossipInterval != 250*time.Millisecond || cfg.ClusterNode != 3 {
		t.Errorf("replication/cluster: %+v", cfg)
	}
	if cfg.HTTPAddr != ":1" || cfg.TraceSample != 64 || cfg.IncidentDir != "/i" || cfg.SLO != "p99<1ns" || cfg.Log == nil {
		t.Errorf("obs: %+v", cfg)
	}
}

func TestConfigRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-log-level", "loud"},
		{"-cluster-map", "/nonexistent/map.json"},
	} {
		if err := parse(t, args...).resolve(); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}

// The signal loop on a live standby: SIGUSR1 promotes it, SIGQUIT leaves
// a valid forced bundle while it keeps serving, SIGTERM ends the loop.
func TestServeSignals(t *testing.T) {
	geom := engine.Config{Shards: 2, Order: 2, Levels: 8}
	primary, err := node.Start(node.Config{Engine: geom})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Kill()
	incidents := t.TempDir()
	standby, err := node.Start(node.Config{Engine: geom, Follow: primary.Addr(),
		DialRetry: time.Millisecond, IncidentDir: incidents})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Kill()

	sigc := make(chan os.Signal) // unbuffered: a send returns once the loop took it
	served := make(chan error, 1)
	go func() { served <- serve(standby, sigc, slog.New(slog.NewTextHandler(io.Discard, nil))) }()

	sigc <- syscall.SIGUSR1
	sigc <- syscall.SIGQUIT
	sigc <- syscall.SIGTERM
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if role := standby.Repl().Role(); role != "primary" {
		t.Errorf("role after SIGUSR1 = %q", role)
	}
	bundles, err := obs.ListIncidentBundles(incidents)
	if err != nil || len(bundles) != 1 {
		t.Fatalf("bundles after SIGQUIT = %v, %v", bundles, err)
	}
	if !strings.HasSuffix(bundles[0], "sigquit") {
		t.Errorf("bundle %s is not the sigquit capture", bundles[0])
	}
	if err := obs.ValidateIncidentBundle(bundles[0]); err != nil {
		t.Error(err)
	}

	// The accept loop dying on its own ends the loop too; a closed
	// listener is the node's own shutdown, not an error.
	go func() { served <- serve(primary, sigc, slog.New(slog.NewTextHandler(io.Discard, nil))) }()
	primary.Kill()
	if err := <-served; err != nil {
		t.Fatalf("serve after Kill: %v", err)
	}
}
