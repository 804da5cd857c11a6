package fleet

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAndDistinct(t *testing.T) {
	peers := []string{"a", "b", "c"}
	r1 := NewRing(peers)
	r2 := NewRing([]string{"c", "a", "b"}) // order must not matter
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("digest-%d", i)
		o1 := r1.Owners(key, 0)
		o2 := r2.Owners(key, 0)
		if len(o1) != 3 {
			t.Fatalf("key %q: want 3 owners, got %v", key, o1)
		}
		seen := map[string]bool{}
		for _, p := range o1 {
			if seen[p] {
				t.Fatalf("key %q: duplicate owner in %v", key, o1)
			}
			seen[p] = true
		}
		for j := range o1 {
			if o1[j] != o2[j] {
				t.Fatalf("key %q: rings disagree: %v vs %v", key, o1, o2)
			}
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	counts := map[string]int{}
	for i := 0; i < 600; i++ {
		counts[r.Owner(fmt.Sprintf("digest-%d", i))]++
	}
	for _, p := range []string{"a", "b", "c"} {
		if counts[p] < 60 {
			t.Fatalf("peer %s owns only %d of 600 keys: %v", p, counts[p], counts)
		}
	}
}

// Rebalance must be minimal: killing one peer moves only that peer's
// keys; every key a survivor owned keeps its owner.
func TestRingRebalanceIsMinimal(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	before := map[string]string{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("digest-%d", i)
		before[key] = r.Owner(key)
	}
	if changed := r.SetHealth("b", false); !changed {
		t.Fatal("SetHealth(b, false) reported no change")
	}
	if got := r.Healthy(); got != 2 {
		t.Fatalf("healthy = %d, want 2", got)
	}
	for key, owner := range before {
		now := r.Owner(key)
		if now == "b" {
			t.Fatalf("key %s still owned by dead peer", key)
		}
		if owner != "b" && now != owner {
			t.Fatalf("key %s moved %s -> %s though its owner survived", key, owner, now)
		}
	}
	// Recovery restores the original assignment exactly.
	r.SetHealth("b", true)
	for key, owner := range before {
		if got := r.Owner(key); got != owner {
			t.Fatalf("key %s: owner %s after recovery, want %s", key, got, owner)
		}
	}
}

func TestRingFailoverOrderStableAcrossViews(t *testing.T) {
	// Two nodes that both saw peer c die must agree on the failover
	// chain for every key — this is what makes post-failover
	// singleflight dedup land on one replica.
	r1 := NewRing([]string{"a", "b", "c"})
	r2 := NewRing([]string{"a", "b", "c"})
	r1.SetHealth("c", false)
	r2.SetHealth("c", false)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("digest-%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("key %s: views disagree after identical ejection", key)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing([]string{"a"})
	r.SetHealth("a", false)
	if got := r.Owners("k", 0); got != nil {
		t.Fatalf("empty ring returned owners %v", got)
	}
	if r.Owner("k") != "" {
		t.Fatal("empty ring returned an owner")
	}
	if r.SetHealth("nonexistent", false) {
		t.Fatal("unknown peer health change reported as a change")
	}
}
