// Incident capture: a triggerable bundler that freezes the daemon's
// diagnostic state — flight-recorder dump, metrics snapshot, Chrome
// trace slice, SLO status, probe detail, goroutine and heap profiles,
// build identity — into a versioned, self-checksummed incident-<ts>/
// directory the moment something goes wrong (panic, SIGQUIT, follower
// fatal-degrade, readiness flip, SLO page).
//
// Bundles are rate-limited (a flapping trigger cannot fill the disk),
// retention-capped (oldest pruned past MaxBundles), and validated by
// ValidateIncidentBundle, which CI and bmwchaos run against every
// bundle a fault run produces.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
)

// IncidentSchema versions the bundle manifest.
const IncidentSchema = "bmwincident/v1"

// errSchema builds the uniform bad-schema error.
func errSchema(what, got, want string) error {
	return fmt.Errorf("obs: %s schema %q, want %q", what, got, want)
}

// IncidentManifest is the bundle's manifest.json: identity, trigger,
// the sha256 of every other file in the bundle, and a self-checksum
// over the manifest with the Checksum field empty — so any byte of the
// bundle (including the manifest itself) changing is detectable.
type IncidentManifest struct {
	Schema     string            `json:"schema"`
	Trigger    string            `json:"trigger"`
	Reason     string            `json:"reason,omitempty"`
	CapturedAt time.Time         `json:"captured_at"`
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	Files      map[string]string `json:"files"`
	Checksum   string            `json:"checksum"`
}

// manifestChecksum computes the self-checksum: sha256 over the
// canonical JSON of the manifest with Checksum cleared.
func manifestChecksum(m IncidentManifest) (string, error) {
	m.Checksum = ""
	b, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// IncidentOptions parameterise NewIncidentCapturer. Every source is
// optional; a capture includes whatever is wired.
type IncidentOptions struct {
	// Dir is the directory bundles are written under (created if
	// missing). Required.
	Dir string
	// MaxBundles caps retained bundles; older ones are pruned
	// (default 16).
	MaxBundles int
	// MinInterval rate-limits captures: triggers inside the interval
	// are counted and suppressed (default 30s). Panic and explicit
	// operator triggers bypass it — see Capture.
	MinInterval time.Duration
	// Flight, Registry, Trace, SLO and Detail are the state sources
	// frozen into the bundle.
	Flight   *FlightRecorder
	Registry *Registry
	Trace    *TraceRecorder
	SLO      *SLOEngine
	Detail   func() map[string]any
	// Logger receives one line per capture and per suppression.
	Logger *slog.Logger
}

// IncidentCapturer writes incident bundles. Nil-disabled.
type IncidentCapturer struct {
	opts IncidentOptions

	mu   sync.Mutex
	last time.Time

	captures   Counter
	suppressed Counter
}

// forceTriggers bypass rate limiting: a panic bundle is the last
// chance to capture anything, and an operator sending SIGQUIT asked
// explicitly.
var forceTriggers = map[string]bool{"panic": true, "sigquit": true}

// NewIncidentCapturer builds a capturer, creating Dir. Returns nil on
// an empty Dir — the disabled capturer.
func NewIncidentCapturer(opts IncidentOptions) (*IncidentCapturer, error) {
	if opts.Dir == "" {
		return nil, nil
	}
	if opts.MaxBundles <= 0 {
		opts.MaxBundles = 16
	}
	if opts.MinInterval <= 0 {
		opts.MinInterval = 30 * time.Second
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: incident dir: %w", err)
	}
	return &IncidentCapturer{opts: opts}, nil
}

// Instrument registers capture/suppression counters under prefix.
func (c *IncidentCapturer) Instrument(reg *Registry, prefix string) {
	if c == nil || reg == nil {
		return
	}
	reg.Help(prefix+"_captures_total", "incident bundles written")
	reg.CounterFunc(prefix+"_captures_total", c.captures.Value)
	reg.Help(prefix+"_suppressed_total", "incident triggers suppressed by rate limiting")
	reg.CounterFunc(prefix+"_suppressed_total", c.suppressed.Value)
}

// Capture writes one bundle for the trigger and returns its
// directory. Rate-limited triggers return ("", nil) and are counted;
// "panic" and "sigquit" bypass the limit. Nil-safe.
func (c *IncidentCapturer) Capture(trigger, reason string) (string, error) {
	if c == nil {
		return "", nil
	}
	now := time.Now()
	c.mu.Lock()
	if !forceTriggers[trigger] && now.Sub(c.last) < c.opts.MinInterval {
		c.mu.Unlock()
		c.suppressed.Inc()
		if c.opts.Logger != nil {
			c.opts.Logger.Info("incident capture suppressed",
				"trigger", trigger, "reason", reason)
		}
		return "", nil
	}
	c.last = now
	c.mu.Unlock()

	dir, err := c.write(trigger, reason, now)
	if err != nil {
		if c.opts.Logger != nil {
			c.opts.Logger.Error("incident capture failed",
				"trigger", trigger, "error", err.Error())
		}
		return "", err
	}
	c.captures.Inc()
	c.opts.Flight.RecordMsg(FlightIncident, 0, trigger, 0, 0, 0)
	if c.opts.Logger != nil {
		c.opts.Logger.Warn("incident captured",
			"trigger", trigger, "reason", reason, "bundle", dir)
	}
	return dir, nil
}

// PanicCapture is the deferred panic handler: on a panic it captures
// a bundle (trigger "panic", reason the panic value) and re-panics so
// the process still dies loudly with the original stack. Use:
//
//	defer inc.PanicCapture()
//
// Nil-safe — a disabled capturer re-panics without capturing.
func (c *IncidentCapturer) PanicCapture() {
	r := recover()
	if r == nil {
		return
	}
	if c != nil {
		_, _ = c.Capture("panic", fmt.Sprint(r))
	}
	panic(r)
}

// sanitizeTrigger keeps bundle directory names shell-safe.
func sanitizeTrigger(t string) string {
	out := make([]byte, 0, len(t))
	for i := 0; i < len(t) && len(out) < 32; i++ {
		b := t[i]
		switch {
		case b >= 'a' && b <= 'z', b >= '0' && b <= '9', b == '-' || b == '_':
			out = append(out, b)
		case b >= 'A' && b <= 'Z':
			out = append(out, b+'a'-'A')
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "trigger"
	}
	return string(out)
}

// write builds one bundle directory.
func (c *IncidentCapturer) write(trigger, reason string, now time.Time) (string, error) {
	name := fmt.Sprintf("incident-%s-%09d-%s",
		now.UTC().Format("20060102T150405"), now.Nanosecond(), sanitizeTrigger(trigger))
	dir := filepath.Join(c.opts.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	man := IncidentManifest{
		Schema:     IncidentSchema,
		Trigger:    trigger,
		Reason:     reason,
		CapturedAt: now,
		Commit:     buildinfo.Commit(),
		GoVersion:  buildinfo.GoVersion(),
		Files:      map[string]string{},
	}
	put := func(fname string, render func(f *os.File) error) error {
		path := filepath.Join(dir, fname)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("%s: %w", fname, err)
		}
		err = render(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", fname, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", fname, err)
		}
		sum := sha256.Sum256(b)
		man.Files[fname] = hex.EncodeToString(sum[:])
		return nil
	}

	if c.opts.Flight != nil {
		if err := put("flight.json", func(f *os.File) error {
			return c.opts.Flight.Dump().WriteJSON(f)
		}); err != nil {
			return dir, err
		}
	}
	if err := put("metrics.json", func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		return enc.Encode(c.opts.Registry.Snapshot())
	}); err != nil {
		return dir, err
	}
	if c.opts.Trace != nil {
		if err := put("trace.json", func(f *os.File) error {
			_, err := c.opts.Trace.WriteTo(f)
			return err
		}); err != nil {
			return dir, err
		}
	}
	if c.opts.SLO != nil {
		if err := put("slo.json", func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", " ")
			return enc.Encode(c.opts.SLO.Status())
		}); err != nil {
			return dir, err
		}
	}
	if c.opts.Detail != nil {
		if err := put("status.json", func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", " ")
			return enc.Encode(c.opts.Detail())
		}); err != nil {
			return dir, err
		}
	}
	if err := put("goroutines.txt", func(f *os.File) error {
		return pprof.Lookup("goroutine").WriteTo(f, 2)
	}); err != nil {
		return dir, err
	}
	if err := put("heap.pprof", func(f *os.File) error {
		return pprof.Lookup("heap").WriteTo(f, 0)
	}); err != nil {
		return dir, err
	}

	sum, err := manifestChecksum(man)
	if err != nil {
		return dir, err
	}
	man.Checksum = sum
	mb, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return dir, err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(mb, '\n'), 0o644); err != nil {
		return dir, err
	}

	c.prune()
	return dir, nil
}

// prune removes the oldest bundles past MaxBundles. Bundle names sort
// chronologically (UTC timestamp prefix), so lexical order is age
// order.
func (c *IncidentCapturer) prune() {
	bundles, err := ListIncidentBundles(c.opts.Dir)
	if err != nil {
		return
	}
	for len(bundles) > c.opts.MaxBundles {
		_ = os.RemoveAll(bundles[0])
		bundles = bundles[1:]
	}
}

// ListIncidentBundles returns the bundle directories under dir,
// oldest first.
func ListIncidentBundles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "incident-") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// ParseIncidentManifest decodes and structurally validates a manifest:
// schema, required identity fields, and the self-checksum. It is the
// pure core of ValidateIncidentBundle (and its fuzz target).
func ParseIncidentManifest(b []byte) (IncidentManifest, error) {
	var m IncidentManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return m, err
	}
	if m.Schema != IncidentSchema {
		return m, errSchema("incident manifest", m.Schema, IncidentSchema)
	}
	if m.Trigger == "" {
		return m, fmt.Errorf("obs: incident manifest missing trigger")
	}
	if m.CapturedAt.IsZero() {
		return m, fmt.Errorf("obs: incident manifest missing captured_at")
	}
	if len(m.Files) == 0 {
		return m, fmt.Errorf("obs: incident manifest lists no files")
	}
	want, err := manifestChecksum(m)
	if err != nil {
		return m, err
	}
	if m.Checksum != want {
		return m, fmt.Errorf("obs: incident manifest checksum %.12s, want %.12s", m.Checksum, want)
	}
	return m, nil
}

// ValidateIncidentBundle checks one bundle directory end to end:
// manifest schema and self-checksum, every listed file present with a
// matching sha256, the required captures (metrics.json, goroutines.txt)
// present, the goroutine profile non-empty, and — when the bundle
// carries one — the flight record parseable with at least one event.
func ValidateIncidentBundle(dir string) error {
	mb, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	m, err := ParseIncidentManifest(mb)
	if err != nil {
		return fmt.Errorf("%s: %w", dir, err)
	}
	for _, req := range []string{"metrics.json", "goroutines.txt"} {
		if _, ok := m.Files[req]; !ok {
			return fmt.Errorf("%s: manifest missing required capture %s", dir, req)
		}
	}
	for fname, wantSum := range m.Files {
		if filepath.Base(fname) != fname {
			return fmt.Errorf("%s: manifest file name %q escapes the bundle", dir, fname)
		}
		b, err := os.ReadFile(filepath.Join(dir, fname))
		if err != nil {
			return fmt.Errorf("%s: %w", dir, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != wantSum {
			return fmt.Errorf("%s: %s checksum %.12s, want %.12s", dir, fname, got, wantSum)
		}
		switch fname {
		case "metrics.json":
			var s Snapshot
			if err := json.Unmarshal(b, &s); err != nil {
				return fmt.Errorf("%s: metrics.json: %w", dir, err)
			}
		case "goroutines.txt":
			if !strings.Contains(string(b), "goroutine") {
				return fmt.Errorf("%s: goroutines.txt has no goroutine dump", dir)
			}
		case "flight.json":
			d, err := ParseFlightDump(b)
			if err != nil {
				return fmt.Errorf("%s: flight.json: %w", dir, err)
			}
			if len(d.Events) == 0 {
				return fmt.Errorf("%s: flight.json holds no events", dir)
			}
		}
	}
	return nil
}
