// Package fleet scales faccd from one process to a sharded fleet of
// replicas that survive peer death, network partitions and overload
// without ever serving a wrong adapter.
//
// The design follows the single-node invariants outward. A consistent-
// hash ring keyed by facc.CompileRequest.Digest gives every request one
// owner replica, so the singleflight dedup table and the crash-safe
// adapter store stay shard-local: a digest's compile runs exactly once
// fleet-wide in the steady state, and its cache hits stay hot on one
// node no matter which replica the load balancer picked. Around that
// core:
//
//   - Request forwarding with an X-Facc-Forwarded hop guard: a replica
//     that does not own a digest relays the request to the owner in one
//     POST; a request that has been relayed more than maxHops times (ring
//     views can disagree mid-rebalance) is rejected as a loop instead of
//     orbiting forever. A digest the owner has stored is answered from
//     its store before admission, so a forwarded cache hit costs one hop.
//   - Per-peer health: a background prober plus every forwarding failure
//     feed a per-peer circuit breaker; a peer past the failure threshold
//     is ejected from the ring (the ring rebalances), and the prober's
//     periodic probe doubles as the breaker's half-open trial that lets
//     a recovered peer back in.
//   - Failover and graceful degradation: a forward that fails in transit
//     (a reply cut off mid-body included: replies are read whole before
//     they are relayed), or that the owner answers with 503 (draining) or
//     508 (loop), moves at once to the next owner on the ring, so each
//     owner gets at most one attempt per request. When every owner of a
//     digest is unreachable the node synthesizes locally — affinity is a
//     performance property, correctness never depends on it (adapters
//     are deterministic: any replica compiles the same bytes).
//
// Metrics land in the shared obs.Registry under fleet.* and surface in
// /status (fleet block) and /metrics.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"sync"
)

// ringPoint is one virtual node: a peer's position on the hash circle.
type ringPoint struct {
	hash uint64
	peer string
}

// vnodes is the virtual-node count per peer: enough that a 3-node
// fleet's ranges stay within a few percent of even.
const vnodes = 64

// Ring is a consistent-hash ring over peer IDs with a live health view.
// Lookups see only healthy peers; SetHealth rebuilds the live point set,
// which is how the fleet "rebalances" — a dead peer's key ranges fall to
// its clockwise successors, and nothing else moves.
type Ring struct {
	mu      sync.RWMutex
	healthy map[string]bool
	all     []ringPoint // every peer's points, sorted once at build
	live    []ringPoint // healthy peers' points, rebuilt on health change
}

// NewRing builds a ring over the given peer IDs, all initially healthy,
// with vnodes virtual nodes per peer.
func NewRing(peers []string) *Ring {
	r := &Ring{healthy: map[string]bool{}}
	for _, p := range peers {
		if r.healthy[p] {
			continue // duplicate ID: one set of points
		}
		r.healthy[p] = true
		var vn [2]byte
		for i := 0; i < vnodes; i++ {
			binary.LittleEndian.PutUint16(vn[:], uint16(i))
			h := sha256.New()
			h.Write(vn[:])
			h.Write([]byte(p))
			sum := h.Sum(nil)
			r.all = append(r.all, ringPoint{
				hash: binary.LittleEndian.Uint64(sum[:8]),
				peer: p,
			})
		}
	}
	sort.Slice(r.all, func(i, j int) bool { return r.all[i].hash < r.all[j].hash })
	r.rebuildLocked()
	return r
}

// rebuildLocked recomputes the live point set from the health map.
// Caller holds r.mu for writing.
func (r *Ring) rebuildLocked() {
	r.live = r.live[:0]
	for _, pt := range r.all {
		if r.healthy[pt.peer] {
			r.live = append(r.live, pt)
		}
	}
}

// SetHealth marks a peer healthy or not and reports whether the view
// changed. Unknown peers are ignored (a peer table is static per process;
// health is the only dynamic part).
func (r *Ring) SetHealth(peer string, healthy bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, known := r.healthy[peer]
	if !known || cur == healthy {
		return false
	}
	r.healthy[peer] = healthy
	r.rebuildLocked()
	return true
}

// Healthy returns how many peers are currently in the live ring.
func (r *Ring) Healthy() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, ok := range r.healthy {
		if ok {
			n++
		}
	}
	return n
}

// IsHealthy reports one peer's live-ring membership.
func (r *Ring) IsHealthy(peer string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.healthy[peer]
}

// Peers returns every peer ID in the table, sorted, with its health.
func (r *Ring) Peers() map[string]bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]bool, len(r.healthy))
	for p, h := range r.healthy {
		out[p] = h
	}
	return out
}

// keyHash positions a request key (a hex digest, but any string works)
// on the circle, using the same hash family as the peer points.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.LittleEndian.Uint64(sum[:8])
}

// Owners returns up to n distinct healthy peers for key, in preference
// order: the owner first, then its clockwise successors — the failover
// chain. n <= 0 means every healthy peer. An empty ring returns nil.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.live) == 0 {
		return nil
	}
	if n <= 0 {
		n = len(r.healthy)
	}
	h := keyHash(key)
	i := sort.Search(len(r.live), func(i int) bool { return r.live[i].hash >= h })
	var out []string
	seen := map[string]bool{}
	for range r.live {
		if i == len(r.live) {
			i = 0
		}
		p := r.live[i].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
			if len(out) == n {
				break
			}
		}
		i++
	}
	return out
}

// Owner returns key's current owner, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	o := r.Owners(key, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}
