// Package cluster generalises the engine's rank-range router from
// shard goroutines to remote bmwd nodes — the step from one multi-core
// process to a fleet. A versioned Map partitions the cluster key space
// (element rank, or a hash of the flow metadata) into contiguous
// per-node bands; clients route each push straight to its owner, and
// PopMin is reconstructed client-side as a strict merge over per-node
// heads — the same design the engine uses across shards, lifted one
// level up. Nodes enforce ownership at their front door (a push
// outside the owned band is refused with StatusNotOwner carrying the
// node's map version), exchange maps over the wire protocol's
// TClusterHello/TClusterMap frames, and converge on the newest map by
// gossip, so a promotion or a rebalance propagates without a
// coordinator. See DESIGN.md §6b.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
)

// ErrBadMap reports bytes that cannot be a cluster map: torn, corrupt,
// or structurally invalid (overlapping bands, missing coverage,
// version zero). Decode never yields a partially-valid map — the
// contract FuzzClusterMapDecode enforces.
var ErrBadMap = errors.New("cluster: bad map")

// Mode selects which key the map's bands partition.
type Mode uint8

// Partitioning modes: which key a push is owner-routed by. The
// cross-node merge keeps a sequential caller's pops in global order
// under either; rank bands keep one node's elements in one contiguous
// rank range, hash bands spread every flow's load.
const (
	// ModeHash partitions flowHash(Meta) — the flow key.
	ModeHash Mode = 0
	// ModeRank partitions the element rank (Value), clamped to the
	// RankBits-wide rank space.
	ModeRank Mode = 1
)

// String names the mode as used in map files and flags.
func (m Mode) String() string {
	switch m {
	case ModeHash:
		return "hash"
	case ModeRank:
		return "rank"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode resolves a mode name ("hash", "rank").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "hash":
		return ModeHash, nil
	case "rank":
		return ModeRank, nil
	}
	return 0, fmt.Errorf("cluster: unknown mode %q (want hash or rank)", s)
}

// Codec and validation bounds.
const (
	// codecVersion is the binary map encoding version.
	codecVersion = 1
	// MaxNodes bounds a map's node count; with MaxAddrs addresses each
	// the encoding stays far under wire.MaxPayload.
	MaxNodes = 256
	// MaxAddrs bounds one node's address list (primary + standbys).
	MaxAddrs = 4
	// MaxAddrLen bounds one address string.
	MaxAddrLen = 256
)

// Node is one replica group in the map: a primary (Addrs[0]) and its
// standbys, owning the key band [Start, next node's Start). Epoch
// counts the group's promotions — a failover bumps it (and the map
// version), which is how the rest of the cluster learns the group's
// serving head moved without the band layout changing.
type Node struct {
	ID    uint32
	Epoch uint64
	Start uint64
	// Addrs are the group's wire addresses in failover order: primary
	// first, standbys after — exactly the list a ResilientClient
	// rotates through on StatusNotPrimary.
	Addrs []string
	// Obs is the node's observability HTTP address ("" when not
	// exported); bmwtop's cluster view scrapes it.
	Obs string
}

// Map is one versioned cluster layout. Nodes are sorted by Start with
// Nodes[0].Start == 0, so the bands tile the key space with no gaps or
// overlaps by construction; node i owns [Start_i, Start_i+1), the last
// node through the top of the key space. Higher Version wins
// everywhere — gossip, client refresh, node adoption.
type Map struct {
	Version  uint64
	Mode     Mode
	RankBits uint8 // ModeRank: keys clamp to 1<<RankBits - 1; 0 in ModeHash
	Nodes    []Node
}

// flowHash is the hash-mode key of a flow id: the SplitMix64
// finalizer — cheap, well mixed, allocation-free.
func flowHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Validate checks the map's structural invariants: nonzero version, a
// known mode with a sane rank width, and bands that tile the key space
// (sorted, starting at zero, strictly increasing, unique ids, bounded
// address lists). Decode calls it, so an adopted map is always whole.
func (m *Map) Validate() error {
	if m.Version == 0 {
		return fmt.Errorf("%w: version 0", ErrBadMap)
	}
	switch m.Mode {
	case ModeHash:
		if m.RankBits != 0 {
			return fmt.Errorf("%w: rank_bits %d in hash mode", ErrBadMap, m.RankBits)
		}
	case ModeRank:
		if m.RankBits < 1 || m.RankBits > 63 {
			return fmt.Errorf("%w: rank_bits %d (want 1..63)", ErrBadMap, m.RankBits)
		}
	default:
		return fmt.Errorf("%w: mode %d", ErrBadMap, uint8(m.Mode))
	}
	if len(m.Nodes) == 0 || len(m.Nodes) > MaxNodes {
		return fmt.Errorf("%w: %d nodes", ErrBadMap, len(m.Nodes))
	}
	if m.Nodes[0].Start != 0 {
		return fmt.Errorf("%w: first band starts at %d, not 0", ErrBadMap, m.Nodes[0].Start)
	}
	seen := make(map[uint32]bool, len(m.Nodes))
	for i, n := range m.Nodes {
		if seen[n.ID] {
			return fmt.Errorf("%w: duplicate node id %d", ErrBadMap, n.ID)
		}
		seen[n.ID] = true
		if i > 0 && n.Start <= m.Nodes[i-1].Start {
			return fmt.Errorf("%w: band starts not strictly increasing at node %d", ErrBadMap, n.ID)
		}
		if m.Mode == ModeRank && n.Start > (uint64(1)<<m.RankBits)-1 {
			return fmt.Errorf("%w: node %d band start %d beyond %d-bit rank space", ErrBadMap, n.ID, n.Start, m.RankBits)
		}
		if len(n.Addrs) == 0 || len(n.Addrs) > MaxAddrs {
			return fmt.Errorf("%w: node %d has %d addrs", ErrBadMap, n.ID, len(n.Addrs))
		}
		for _, a := range n.Addrs {
			if len(a) == 0 || len(a) > MaxAddrLen {
				return fmt.Errorf("%w: node %d addr length %d", ErrBadMap, n.ID, len(a))
			}
		}
		if len(n.Obs) > MaxAddrLen {
			return fmt.Errorf("%w: node %d obs length %d", ErrBadMap, n.ID, len(n.Obs))
		}
	}
	return nil
}

// KeyOf maps an element to its cluster routing key: the clamped rank
// in ModeRank, the metadata hash in ModeHash.
func (m *Map) KeyOf(value, meta uint64) uint64 {
	if m.Mode == ModeRank {
		if max := (uint64(1) << m.RankBits) - 1; value > max {
			return max
		}
		return value
	}
	return flowHash(meta)
}

// NodeFor returns the index of the node owning key.
func (m *Map) NodeFor(key uint64) int {
	// First index whose band starts beyond key; the owner is the one
	// before it. Nodes[0].Start == 0 guarantees i >= 1.
	i := sort.Search(len(m.Nodes), func(i int) bool { return m.Nodes[i].Start > key })
	return i - 1
}

// Owner returns the node owning key.
func (m *Map) Owner(key uint64) *Node { return &m.Nodes[m.NodeFor(key)] }

// ByID returns the node with the given id, or nil.
func (m *Map) ByID(id uint32) *Node {
	for i := range m.Nodes {
		if m.Nodes[i].ID == id {
			return &m.Nodes[i]
		}
	}
	return nil
}

// Band returns the inclusive key range [start, end] node id owns.
func (m *Map) Band(id uint32) (start, end uint64, ok bool) {
	for i := range m.Nodes {
		if m.Nodes[i].ID != id {
			continue
		}
		end = uint64(math.MaxUint64)
		if m.Mode == ModeRank {
			end = (uint64(1) << m.RankBits) - 1
		}
		if i+1 < len(m.Nodes) {
			end = m.Nodes[i+1].Start - 1
		}
		return m.Nodes[i].Start, end, true
	}
	return 0, 0, false
}

// EpochSum totals the node epochs — the tie-breaker when two maps
// share a version (e.g. two groups promoted concurrently, each minting
// version v+1 from v).
func (m *Map) EpochSum() uint64 {
	var s uint64
	for _, n := range m.Nodes {
		s += n.Epoch
	}
	return s
}

// Compare orders two maps for adoption: positive when a is newer than
// b, by version then by epoch sum. Equal keys compare 0 — neither
// replaces the other, so gossip reaches a fixpoint instead of
// thrashing between divergent same-version maps.
func Compare(a, b *Map) int {
	switch {
	case a.Version != b.Version:
		if a.Version > b.Version {
			return 1
		}
		return -1
	case a.EpochSum() != b.EpochSum():
		if a.EpochSum() > b.EpochSum() {
			return 1
		}
		return -1
	}
	return 0
}

// Clone deep-copies the map.
func (m *Map) Clone() *Map {
	c := &Map{Version: m.Version, Mode: m.Mode, RankBits: m.RankBits, Nodes: make([]Node, len(m.Nodes))}
	copy(c.Nodes, m.Nodes)
	for i := range c.Nodes {
		c.Nodes[i].Addrs = append([]string(nil), m.Nodes[i].Addrs...)
	}
	return c
}

// Encode appends the binary (TClusterMap payload) encoding to dst.
// The map must be valid; Encode panics on one that is not — that is a
// caller bug, never an input condition.
func (m *Map) Encode(dst []byte) []byte {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	dst = append(dst, codecVersion)
	dst = binary.LittleEndian.AppendUint64(dst, m.Version)
	dst = append(dst, byte(m.Mode), m.RankBits)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Nodes)))
	for _, n := range m.Nodes {
		dst = binary.LittleEndian.AppendUint32(dst, n.ID)
		dst = binary.LittleEndian.AppendUint64(dst, n.Epoch)
		dst = binary.LittleEndian.AppendUint64(dst, n.Start)
		dst = append(dst, byte(len(n.Addrs)))
		for _, a := range n.Addrs {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(a)))
			dst = append(dst, a...)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(n.Obs)))
		dst = append(dst, n.Obs...)
	}
	return dst
}

// Decode parses a binary map. Arbitrary input never panics; torn or
// corrupt bytes — including structurally invalid maps and trailing
// garbage — return ErrBadMap-wrapped errors and never a partial map.
func Decode(p []byte) (*Map, error) {
	if len(p) < 13 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadMap, len(p))
	}
	if p[0] != codecVersion {
		return nil, fmt.Errorf("%w: codec version %d", ErrBadMap, p[0])
	}
	m := &Map{
		Version:  binary.LittleEndian.Uint64(p[1:9]),
		Mode:     Mode(p[9]),
		RankBits: p[10],
	}
	count := int(binary.LittleEndian.Uint16(p[11:13]))
	if count == 0 || count > MaxNodes {
		return nil, fmt.Errorf("%w: %d nodes", ErrBadMap, count)
	}
	p = p[13:]
	m.Nodes = make([]Node, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < 21 {
			return nil, fmt.Errorf("%w: truncated at node %d", ErrBadMap, i)
		}
		n := Node{
			ID:    binary.LittleEndian.Uint32(p[0:4]),
			Epoch: binary.LittleEndian.Uint64(p[4:12]),
			Start: binary.LittleEndian.Uint64(p[12:20]),
		}
		na := int(p[20])
		p = p[21:]
		if na == 0 || na > MaxAddrs {
			return nil, fmt.Errorf("%w: node %d addr count %d", ErrBadMap, i, na)
		}
		for j := 0; j < na; j++ {
			s, rest, err := decodeString(p, i)
			if err != nil {
				return nil, err
			}
			if len(s) == 0 {
				return nil, fmt.Errorf("%w: node %d empty addr", ErrBadMap, i)
			}
			n.Addrs = append(n.Addrs, s)
			p = rest
		}
		obs, rest, err := decodeString(p, i)
		if err != nil {
			return nil, err
		}
		n.Obs = obs
		p = rest
		m.Nodes = append(m.Nodes, n)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMap, len(p))
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeString parses one length-prefixed string with bounds checks.
func decodeString(p []byte, node int) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, fmt.Errorf("%w: truncated string at node %d", ErrBadMap, node)
	}
	n := int(binary.LittleEndian.Uint16(p))
	if n > MaxAddrLen {
		return "", nil, fmt.Errorf("%w: node %d string length %d", ErrBadMap, node, n)
	}
	if len(p) < 2+n {
		return "", nil, fmt.Errorf("%w: truncated string at node %d", ErrBadMap, node)
	}
	return string(p[2 : 2+n]), p[2+n:], nil
}

// jsonMap is the -cluster-map bootstrap file format.
type jsonMap struct {
	Version  uint64     `json:"version"`
	Mode     string     `json:"mode"`
	RankBits uint8      `json:"rank_bits,omitempty"`
	Nodes    []jsonNode `json:"nodes"`
}

type jsonNode struct {
	ID    uint32   `json:"id"`
	Epoch uint64   `json:"epoch,omitempty"`
	Start uint64   `json:"start"`
	Addrs []string `json:"addrs"`
	Obs   string   `json:"obs,omitempty"`
}

// LoadFile reads and validates a JSON map file — the static bootstrap
// every node and client can start from before gossip takes over.
// Nodes may appear in any order (the loader sorts by Start); a zero
// epoch defaults to 1.
func LoadFile(path string) (*Map, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var jm jsonMap
	if err := json.Unmarshal(b, &jm); err != nil {
		return nil, fmt.Errorf("cluster: parse %s: %w", path, err)
	}
	mode, err := ParseMode(jm.Mode)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	m := &Map{Version: jm.Version, Mode: mode, RankBits: jm.RankBits}
	if m.Version == 0 {
		m.Version = 1
	}
	for _, jn := range jm.Nodes {
		n := Node{ID: jn.ID, Epoch: jn.Epoch, Start: jn.Start, Addrs: jn.Addrs, Obs: jn.Obs}
		if n.Epoch == 0 {
			n.Epoch = 1
		}
		m.Nodes = append(m.Nodes, n)
	}
	sort.Slice(m.Nodes, func(i, j int) bool { return m.Nodes[i].Start < m.Nodes[j].Start })
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return m, nil
}

// SaveFile writes the map as a JSON bootstrap file.
func (m *Map) SaveFile(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	jm := jsonMap{Version: m.Version, Mode: m.Mode.String(), RankBits: m.RankBits}
	for _, n := range m.Nodes {
		jm.Nodes = append(jm.Nodes, jsonNode{ID: n.ID, Epoch: n.Epoch, Start: n.Start, Addrs: n.Addrs, Obs: n.Obs})
	}
	b, err := json.MarshalIndent(jm, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
