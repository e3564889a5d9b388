package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// newTestCapturer builds a capturer over t.TempDir with a flight
// recorder that already holds one event (so flight.json validates).
func newTestCapturer(t *testing.T, opts IncidentOptions) (*IncidentCapturer, string) {
	t.Helper()
	dir := t.TempDir()
	opts.Dir = dir
	if opts.Flight == nil {
		opts.Flight = NewFlightRecorder(64)
		opts.Flight.RecordMsg(FlightReplState, 0, "attached", 1, 0, 0)
	}
	if opts.Registry == nil {
		opts.Registry = NewRegistry()
		opts.Registry.Counter("test_ops_total").Add(7)
	}
	c, err := NewIncidentCapturer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil {
		t.Fatal("capturer nil despite Dir")
	}
	return c, dir
}

func TestIncidentCaptureRoundtrip(t *testing.T) {
	c, dir := newTestCapturer(t, IncidentOptions{})
	bundle, err := c.Capture("overload", "shard 1 tripped")
	if err != nil {
		t.Fatal(err)
	}
	if bundle == "" {
		t.Fatal("capture suppressed unexpectedly")
	}
	if err := ValidateIncidentBundle(bundle); err != nil {
		t.Fatalf("fresh bundle invalid: %v", err)
	}

	raw, err := os.ReadFile(filepath.Join(bundle, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseIncidentManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Trigger != "overload" || m.Reason != "shard 1 tripped" {
		t.Fatalf("manifest identity: %+v", m)
	}
	for _, want := range []string{"manifest.json", "flight.json", "metrics.json", "goroutines.txt", "heap.pprof"} {
		if _, err := os.Stat(filepath.Join(bundle, want)); err != nil {
			t.Errorf("bundle missing %s: %v", want, err)
		}
	}
	// The flight dump must carry the pre-incident event.
	fb, err := os.ReadFile(filepath.Join(bundle, "flight.json"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseFlightDump(fb)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) == 0 || d.Events[0].Msg != "attached" {
		t.Fatalf("flight dump events: %+v", d.Events)
	}

	if got, err := ListIncidentBundles(dir); err != nil || len(got) != 1 || got[0] != bundle {
		t.Fatalf("ListIncidentBundles = %v, %v", got, err)
	}
}

func TestIncidentRateLimitAndForceTriggers(t *testing.T) {
	c, _ := newTestCapturer(t, IncidentOptions{MinInterval: time.Hour})
	reg := NewRegistry()
	c.Instrument(reg, "inc")

	if dir, err := c.Capture("overload", "first"); err != nil || dir == "" {
		t.Fatalf("first capture: %q, %v", dir, err)
	}
	// Inside the interval: suppressed, not an error.
	if dir, err := c.Capture("overload", "second"); err != nil || dir != "" {
		t.Fatalf("rate-limited capture: %q, %v", dir, err)
	}
	// Panic and operator triggers bypass the limit.
	for _, trig := range []string{"panic", "sigquit"} {
		if dir, err := c.Capture(trig, "forced"); err != nil || dir == "" {
			t.Fatalf("force trigger %s: %q, %v", trig, dir, err)
		}
	}
	s := reg.Snapshot()
	if got := s.Counter("inc_captures_total"); got != 3 {
		t.Errorf("captures_total = %d, want 3", got)
	}
	if got := s.Counter("inc_suppressed_total"); got != 1 {
		t.Errorf("suppressed_total = %d, want 1", got)
	}
}

func TestIncidentRetentionPrune(t *testing.T) {
	c, dir := newTestCapturer(t, IncidentOptions{MaxBundles: 3, MinInterval: time.Nanosecond})
	var first string
	for i := 0; i < 6; i++ {
		b, err := c.Capture("overload", "episode")
		if err != nil || b == "" {
			t.Fatalf("capture %d: %q, %v", i, b, err)
		}
		if i == 0 {
			first = b
		}
		time.Sleep(2 * time.Millisecond) // distinct timestamps, distinct names
	}
	bundles, err := ListIncidentBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 3 {
		t.Fatalf("retained %d bundles, cap 3: %v", len(bundles), bundles)
	}
	if _, err := os.Stat(first); !os.IsNotExist(err) {
		t.Fatalf("oldest bundle survived pruning: %v", err)
	}
	for _, b := range bundles {
		if err := ValidateIncidentBundle(b); err != nil {
			t.Errorf("retained bundle invalid: %v", err)
		}
	}
}

func TestIncidentTamperDetection(t *testing.T) {
	c, _ := newTestCapturer(t, IncidentOptions{})
	bundle, err := c.Capture("sigquit", "freeze")
	if err != nil || bundle == "" {
		t.Fatal(err)
	}

	// Flip a byte in a captured artifact: the per-file sha256 must trip.
	mpath := filepath.Join(bundle, "metrics.json")
	b, _ := os.ReadFile(mpath)
	tampered := append([]byte(nil), b...)
	tampered[len(tampered)/2] ^= 0x20
	if err := os.WriteFile(mpath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ValidateIncidentBundle(bundle); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered artifact passed validation: %v", err)
	}
	os.WriteFile(mpath, b, 0o644)
	if err := ValidateIncidentBundle(bundle); err != nil {
		t.Fatalf("restored bundle invalid: %v", err)
	}

	// Editing the manifest itself trips the self-checksum.
	manPath := filepath.Join(bundle, "manifest.json")
	raw, _ := os.ReadFile(manPath)
	var m IncidentManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m.Trigger = "benign"
	forged, _ := json.Marshal(m)
	if _, err := ParseIncidentManifest(forged); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("forged manifest accepted: %v", err)
	}

	// Deleting a listed file is detected.
	os.Remove(mpath)
	if err := ValidateIncidentBundle(bundle); err == nil {
		t.Fatal("bundle with a missing artifact passed validation")
	}
}

func TestIncidentManifestRejectsEscapes(t *testing.T) {
	dir := t.TempDir()
	// A well-formed metrics.json so only the escaping entry can fail.
	metrics := []byte(`{}`)
	os.WriteFile(filepath.Join(dir, "metrics.json"), metrics, 0o644)
	msum := sha256.Sum256(metrics)
	gor := []byte("goroutine 1 [running]:\n")
	os.WriteFile(filepath.Join(dir, "goroutines.txt"), gor, 0o644)
	gsum := sha256.Sum256(gor)
	man := IncidentManifest{
		Schema:     IncidentSchema,
		Trigger:    "overload",
		CapturedAt: time.Now(),
		Files: map[string]string{
			"metrics.json":   hex.EncodeToString(msum[:]),
			"goroutines.txt": hex.EncodeToString(gsum[:]),
			"../outside.txt": strings.Repeat("0", 64),
		},
	}
	sum, err := manifestChecksum(man)
	if err != nil {
		t.Fatal(err)
	}
	man.Checksum = sum
	b, _ := json.MarshalIndent(man, "", " ")
	os.WriteFile(filepath.Join(dir, "manifest.json"), b, 0o644)
	if err := ValidateIncidentBundle(dir); err == nil || !strings.Contains(err.Error(), "escapes") {
		t.Fatalf("path-escaping manifest accepted: %v", err)
	}
}

func TestIncidentNilDisabled(t *testing.T) {
	c, err := NewIncidentCapturer(IncidentOptions{})
	if err != nil || c != nil {
		t.Fatalf("empty Dir: %v, %v", c, err)
	}
	if dir, err := c.Capture("overload", "x"); dir != "" || err != nil {
		t.Fatalf("nil Capture: %q, %v", dir, err)
	}
	c.Instrument(NewRegistry(), "inc")
	// Nil-safe PanicCapture still re-panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PanicCapture swallowed the panic")
			}
		}()
		defer c.PanicCapture()
		panic("boom")
	}()
}

func TestIncidentPanicCaptureWritesBundle(t *testing.T) {
	c, dir := newTestCapturer(t, IncidentOptions{MinInterval: time.Hour})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic not re-raised")
			}
		}()
		defer c.PanicCapture()
		panic("shard exploded")
	}()
	bundles, err := ListIncidentBundles(dir)
	if err != nil || len(bundles) != 1 {
		t.Fatalf("bundles after panic: %v, %v", bundles, err)
	}
	raw, _ := os.ReadFile(filepath.Join(bundles[0], "manifest.json"))
	m, err := ParseIncidentManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Trigger != "panic" || !strings.Contains(m.Reason, "shard exploded") {
		t.Fatalf("panic manifest: %+v", m)
	}
}

// FuzzIncidentManifest asserts the manifest parser never panics and
// never accepts a document whose self-checksum does not bind its
// contents.
func FuzzIncidentManifest(f *testing.F) {
	man := IncidentManifest{
		Schema:     IncidentSchema,
		Trigger:    "overload",
		Reason:     "seed",
		CapturedAt: time.Unix(1700000000, 0).UTC(),
		Commit:     "deadbeef",
		GoVersion:  "go1.24",
		Files:      map[string]string{"metrics.json": strings.Repeat("a", 64)},
	}
	sum, err := manifestChecksum(man)
	if err != nil {
		f.Fatal(err)
	}
	man.Checksum = sum
	valid, _ := json.Marshal(man)
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":"bmwincident/v1"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"schema":"bmwincident/v1","trigger":"x","captured_at":"2024-01-01T00:00:00Z","files":{"a":"b"},"checksum":"00"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseIncidentManifest(data)
		if err != nil {
			return
		}
		// Accepted manifests must be internally consistent: schema,
		// identity fields, and a checksum that re-verifies.
		if m.Schema != IncidentSchema || m.Trigger == "" || m.CapturedAt.IsZero() || len(m.Files) == 0 {
			t.Fatalf("parser accepted inconsistent manifest: %+v", m)
		}
		want, err := manifestChecksum(m)
		if err != nil {
			t.Fatal(err)
		}
		if m.Checksum != want {
			t.Fatalf("parser accepted checksum %q, recomputed %q", m.Checksum, want)
		}
	})
}
