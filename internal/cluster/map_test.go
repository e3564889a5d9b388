package cluster

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"
)

// testMap builds a valid 3-node rank map for tests.
func testMap() *Map {
	return &Map{
		Version:  3,
		Mode:     ModeRank,
		RankBits: 20,
		Nodes: []Node{
			{ID: 1, Epoch: 1, Start: 0, Addrs: []string{"127.0.0.1:1", "127.0.0.1:2"}, Obs: "127.0.0.1:91"},
			{ID: 2, Epoch: 4, Start: 1000, Addrs: []string{"127.0.0.1:3"}},
			{ID: 7, Epoch: 1, Start: 500000, Addrs: []string{"127.0.0.1:4"}},
		},
	}
}

func TestMapEncodeDecodeRoundTrip(t *testing.T) {
	m := testMap()
	enc := m.Encode(nil)
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got.Encode(nil), enc) {
		t.Fatal("re-encode differs from original encoding")
	}
	if got.Version != m.Version || got.Mode != m.Mode || got.RankBits != m.RankBits {
		t.Fatalf("header mismatch: %+v vs %+v", got, m)
	}
	for i := range m.Nodes {
		if got.Nodes[i].ID != m.Nodes[i].ID || got.Nodes[i].Epoch != m.Nodes[i].Epoch ||
			got.Nodes[i].Start != m.Nodes[i].Start || got.Nodes[i].Obs != m.Nodes[i].Obs {
			t.Fatalf("node %d mismatch: %+v vs %+v", i, got.Nodes[i], m.Nodes[i])
		}
	}
}

func TestMapDecodeRejectsCorruption(t *testing.T) {
	enc := testMap().Encode(nil)
	// Every truncation must fail cleanly.
	for n := 0; n < len(enc); n++ {
		if _, err := Decode(enc[:n]); !errors.Is(err, ErrBadMap) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrBadMap", n, err)
		}
	}
	// Trailing garbage is not tolerated.
	if _, err := Decode(append(append([]byte{}, enc...), 0)); !errors.Is(err, ErrBadMap) {
		t.Fatalf("trailing byte: err = %v, want ErrBadMap", err)
	}
	// Wrong codec version.
	bad := append([]byte{}, enc...)
	bad[0] = 99
	if _, err := Decode(bad); !errors.Is(err, ErrBadMap) {
		t.Fatalf("codec version: err = %v, want ErrBadMap", err)
	}
}

func TestMapValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Map)
	}{
		{"version zero", func(m *Map) { m.Version = 0 }},
		{"unknown mode", func(m *Map) { m.Mode = 9 }},
		{"rank bits zero in rank mode", func(m *Map) { m.RankBits = 0 }},
		{"rank bits in hash mode", func(m *Map) { m.Mode = ModeHash }},
		{"no nodes", func(m *Map) { m.Nodes = nil }},
		{"first band not zero", func(m *Map) { m.Nodes[0].Start = 5 }},
		{"duplicate id", func(m *Map) { m.Nodes[1].ID = 1 }},
		{"non-increasing starts", func(m *Map) { m.Nodes[2].Start = 1000 }},
		{"start beyond rank space", func(m *Map) { m.Nodes[2].Start = 1 << 21 }},
		{"no addrs", func(m *Map) { m.Nodes[1].Addrs = nil }},
		{"empty addr", func(m *Map) { m.Nodes[1].Addrs = []string{""} }},
	}
	for _, tc := range cases {
		m := testMap()
		tc.mut(m)
		if err := m.Validate(); !errors.Is(err, ErrBadMap) {
			t.Errorf("%s: err = %v, want ErrBadMap", tc.name, err)
		}
	}
}

func TestMapRouting(t *testing.T) {
	m := testMap()
	for _, tc := range []struct {
		key  uint64
		want uint32
	}{
		{0, 1}, {999, 1}, {1000, 2}, {499999, 2}, {500000, 7}, {math.MaxUint64, 7},
	} {
		if got := m.Owner(tc.key).ID; got != tc.want {
			t.Errorf("Owner(%d) = node %d, want %d", tc.key, got, tc.want)
		}
	}
	// Rank mode clamps the value into the rank space.
	if k := m.KeyOf(math.MaxUint64, 0); k != (1<<20)-1 {
		t.Errorf("KeyOf clamp = %d", k)
	}
	// Hash mode keys on the metadata hash, matching the engine's.
	hm := &Map{Version: 1, Mode: ModeHash, Nodes: []Node{{ID: 1, Epoch: 1, Addrs: []string{"a"}}}}
	if k := hm.KeyOf(12, 34); k != flowHash(34) {
		t.Errorf("hash KeyOf = %d, want flowHash(meta)", k)
	}

	s, e, ok := m.Band(2)
	if !ok || s != 1000 || e != 499999 {
		t.Errorf("Band(2) = [%d,%d] ok=%v", s, e, ok)
	}
	s, e, ok = m.Band(7)
	if !ok || s != 500000 || e != (1<<20)-1 {
		t.Errorf("Band(7) = [%d,%d] ok=%v", s, e, ok)
	}
	if _, _, ok := m.Band(99); ok {
		t.Error("Band(99) found a node that does not exist")
	}
}

func TestMapCompare(t *testing.T) {
	a, b := testMap(), testMap()
	if Compare(a, b) != 0 {
		t.Fatal("identical maps should compare 0")
	}
	b.Version++
	if Compare(b, a) <= 0 || Compare(a, b) >= 0 {
		t.Fatal("higher version must win")
	}
	// Same version: epoch sum breaks the tie (concurrent promotions).
	b.Version = a.Version
	b.Nodes[0].Epoch++
	if Compare(b, a) <= 0 {
		t.Fatal("higher epoch sum must win at equal version")
	}
}

func TestMapFileRoundTrip(t *testing.T) {
	m := testMap()
	path := filepath.Join(t.TempDir(), "map.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if Compare(got, m) != 0 || len(got.Nodes) != len(m.Nodes) {
		t.Fatalf("loaded map differs: %+v", got)
	}
	if !bytes.Equal(got.Encode(nil), m.Encode(nil)) {
		t.Fatal("loaded map encodes differently")
	}
}

// FuzzClusterMapDecode feeds arbitrary bytes to Decode and, for inputs
// that do decode, re-encodes and checks the identity — the decoder
// must never panic, never yield an invalid map, and accept exactly
// what the encoder produces.
func FuzzClusterMapDecode(f *testing.F) {
	f.Add(testMap().Encode(nil))
	hm := &Map{Version: 1, Mode: ModeHash, Nodes: []Node{
		{ID: 0, Epoch: 1, Start: 0, Addrs: []string{"x"}},
		{ID: 1, Epoch: 2, Start: 1 << 63, Addrs: []string{"y", "z"}, Obs: "o"},
	}}
	f.Add(hm.Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{codecVersion})

	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := Decode(p)
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("decode accepted an invalid map: %v", verr)
		}
		if re := m.Encode(nil); !bytes.Equal(re, p) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", p, re)
		}
	})
}
