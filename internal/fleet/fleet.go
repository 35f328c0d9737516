// Package fleet partitions the fvcached result/work space across a
// static set of peer nodes with a consistent-hash ring.
//
// Ownership keys are the serving layer's normalized config
// fingerprints (workload|scale|config-fingerprint|opts), so each
// (workload, scale, config) combination is computed and cached on
// exactly one node and the fleet's tiered result caches partition the
// key space instead of duplicating it.
//
// The ring hangs VNodes virtual nodes per peer on a 64-bit FNV-1a hash
// circle; a key is owned by the first vnode clockwise from its hash.
// Placement is derived purely from the sorted peer URL list, so every
// node computes the identical ring regardless of the order its -peers
// flag listed them, and the ring is stable across restarts.
//
// Membership is static (no gossip, no rebalancing): when a peer is
// unreachable the forwarding layer falls back to executing locally —
// it does NOT reassign ownership to the next vnode, which would let
// two live nodes both claim a key and split its cache. Per-peer health
// here is a consecutive-failure breaker with a cooldown and a
// half-open probe, mirroring the serving layer's per-workload breaker.
package fleet

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Options configures a Fleet.
type Options struct {
	// Self is this node's own advertised URL. Required; added to Peers
	// if absent.
	Self string
	// Peers is the full static membership, including or excluding Self.
	Peers []string
	// VNodes is the number of virtual nodes per peer (default 64).
	VNodes int
	// FailThreshold is the number of consecutive forward failures that
	// mark a peer down (default 3).
	FailThreshold int
	// Cooldown is how long a down peer stays down before a half-open
	// probe is allowed (default 5s).
	Cooldown time.Duration
	// now overrides the clock in tests.
	now func() time.Time
}

// PeerState describes a peer's health.
type PeerState string

const (
	// StateSelf: this node itself; always available.
	StateSelf PeerState = "self"
	// StateUp: forwarding to the peer is succeeding.
	StateUp PeerState = "up"
	// StateDown: consecutive failures crossed the threshold; the peer
	// is skipped until the cooldown elapses.
	StateDown PeerState = "down"
	// StateProbing: cooldown elapsed; the next forward is a half-open
	// probe (success resets the peer, failure re-downs it).
	StateProbing PeerState = "probing"
)

// Peer is one fleet member.
type Peer struct {
	url  string
	self bool

	fails     atomic.Int32 // consecutive forward failures
	downUntil atomic.Int64 // unix nanos until which the peer is down; 0 = up
}

// URL returns the peer's advertised base URL.
func (p *Peer) URL() string { return p.url }

// Self reports whether the peer is this node itself.
func (p *Peer) Self() bool { return p.self }

type vnode struct {
	hash uint64
	peer *Peer
}

// Fleet is an immutable ring over a static peer set plus mutable
// per-peer health. Safe for concurrent use.
type Fleet struct {
	self  *Peer
	peers []*Peer // sorted by URL
	ring  []vnode // sorted by hash
	opt   Options
}

// New validates and normalizes the membership and builds the ring.
func New(opt Options) (*Fleet, error) {
	if opt.Self == "" {
		return nil, fmt.Errorf("fleet: Self URL is required")
	}
	if opt.VNodes <= 0 {
		opt.VNodes = 64
	}
	if opt.FailThreshold <= 0 {
		opt.FailThreshold = 3
	}
	if opt.Cooldown <= 0 {
		opt.Cooldown = 5 * time.Second
	}
	if opt.now == nil {
		opt.now = time.Now
	}

	self, err := normalizeURL(opt.Self)
	if err != nil {
		return nil, fmt.Errorf("fleet: self %q: %w", opt.Self, err)
	}
	seen := map[string]bool{self: true}
	urls := []string{self}
	for _, raw := range opt.Peers {
		u, err := normalizeURL(raw)
		if err != nil {
			return nil, fmt.Errorf("fleet: peer %q: %w", raw, err)
		}
		if !seen[u] {
			seen[u] = true
			urls = append(urls, u)
		}
	}
	// The sorted URL list is the sole input to placement: every node
	// derives the identical ring from the same membership.
	sort.Strings(urls)

	f := &Fleet{opt: opt}
	for _, u := range urls {
		p := &Peer{url: u, self: u == self}
		if p.self {
			f.self = p
		}
		f.peers = append(f.peers, p)
		for i := 0; i < opt.VNodes; i++ {
			f.ring = append(f.ring, vnode{hash: hash64(fmt.Sprintf("%s#%d", u, i)), peer: p})
		}
	}
	sort.Slice(f.ring, func(i, j int) bool {
		if f.ring[i].hash != f.ring[j].hash {
			return f.ring[i].hash < f.ring[j].hash
		}
		return f.ring[i].peer.url < f.ring[j].peer.url
	})
	return f, nil
}

// Size returns the number of fleet members (including self).
func (f *Fleet) Size() int { return len(f.peers) }

// SelfURL returns this node's normalized advertised URL.
func (f *Fleet) SelfURL() string { return f.self.url }

// Peers returns all members sorted by URL.
func (f *Fleet) Peers() []*Peer { return f.peers }

// Owner returns the peer owning key: the first vnode clockwise from
// the key's hash on the ring.
func (f *Fleet) Owner(key string) *Peer {
	h := hash64(key)
	i := sort.Search(len(f.ring), func(i int) bool { return f.ring[i].hash >= h })
	if i == len(f.ring) {
		i = 0 // wrap around the top of the circle
	}
	return f.ring[i].peer
}

// State returns p's current health state.
func (f *Fleet) State(p *Peer) PeerState {
	if p.self {
		return StateSelf
	}
	du := p.downUntil.Load()
	switch {
	case du == 0:
		return StateUp
	case f.opt.now().UnixNano() < du:
		return StateDown
	default:
		return StateProbing
	}
}

// Available reports whether forwarding to p is worth attempting now.
// Self is always available; a down peer becomes available again
// (half-open) once its cooldown elapses.
func (f *Fleet) Available(p *Peer) bool {
	s := f.State(p)
	return s != StateDown
}

// ReportSuccess records a successful forward to p, resetting its
// failure streak (and closing a half-open probe).
func (f *Fleet) ReportSuccess(p *Peer) {
	p.fails.Store(0)
	p.downUntil.Store(0)
}

// ReportFailure records a failed forward to p. Crossing the threshold
// (or failing a half-open probe) marks p down for the cooldown.
func (f *Fleet) ReportFailure(p *Peer) {
	wasProbing := p.downUntil.Load() != 0
	n := p.fails.Add(1)
	if wasProbing || int(n) >= f.opt.FailThreshold {
		p.downUntil.Store(f.opt.now().Add(f.opt.Cooldown).UnixNano())
	}
}

// PeerSnapshot is one peer's row in a fleet snapshot.
type PeerSnapshot struct {
	URL    string    `json:"url"`
	Self   bool      `json:"self"`
	State  PeerState `json:"state"`
	Fails  int       `json:"consecutive_failures"`
	VNodes int       `json:"vnodes"`
	// Share is the fraction of the 64-bit hash space the peer's vnode
	// arcs cover — the expected fraction of keys it owns.
	Share float64 `json:"share"`
}

// Snapshot returns the ring layout and per-peer health for
// /debug/fleet.
func (f *Fleet) Snapshot() []PeerSnapshot {
	share := map[*Peer]float64{}
	const whole = float64(1<<63) * 2 // 2^64
	for i, vn := range f.ring {
		// The arc ending at vn.hash (owned by vn.peer) starts at the
		// previous vnode's hash; the first arc wraps from the last.
		var arc uint64
		if i == 0 {
			arc = vn.hash - f.ring[len(f.ring)-1].hash // wraps mod 2^64
		} else {
			arc = vn.hash - f.ring[i-1].hash
		}
		share[vn.peer] += float64(arc) / whole
	}
	out := make([]PeerSnapshot, 0, len(f.peers))
	for _, p := range f.peers {
		out = append(out, PeerSnapshot{
			URL:    p.url,
			Self:   p.self,
			State:  f.State(p),
			Fails:  int(p.fails.Load()),
			VNodes: f.opt.VNodes,
			Share:  share[p],
		})
	}
	return out
}

// hash64 is 64-bit FNV-1a finished with a splitmix64-style avalanche:
// raw FNV clumps on near-identical strings (vnode labels differ only
// in a trailing index), and clumped vnodes skew the ring badly.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// normalizeURL canonicalizes a peer URL (scheme required, host
// required, trailing slash and path stripped) so equality and ring
// placement are insensitive to spelling.
func normalizeURL(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		// A bare host:port parses badly (the port looks like a path
		// colon); retry with an implied http scheme.
		var err2 error
		u, err2 = url.Parse("http://" + raw)
		if err2 != nil {
			if err != nil {
				return "", err
			}
			return "", err2
		}
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("scheme must be http or https")
	}
	if u.Host == "" {
		return "", fmt.Errorf("missing host")
	}
	return u.Scheme + "://" + strings.ToLower(u.Host), nil
}
