package clusterkv

import (
	"fmt"
	"testing"

	"softmem/internal/ipc"
)

// testTable builds an n-node table with deterministic addresses.
func testTable(n int) ipc.ClusterTable {
	t := ipc.ClusterTable{Version: 1}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, ipc.ClusterNode{
			Addr: fmt.Sprintf("10.0.0.%d:6380", i+1),
			Peer: fmt.Sprintf("10.0.0.%d:16380", i+1),
		})
	}
	return t
}

// ownerCounts tallies slots per owner.
func ownerCounts(r *Ring) map[string]int {
	counts := make(map[string]int)
	for s := 0; s < NumSlots; s++ {
		counts[r.Owner(s)]++
	}
	return counts
}

// TestSlotBalance pins the load-spreading property: with vnodes
// virtual points per node, every node's slot share stays within ±15% of
// the ideal NumSlots/n for cluster sizes 3 through 9.
func TestSlotBalance(t *testing.T) {
	for n := 3; n <= 9; n++ {
		r := BuildRing(testTable(n))
		ideal := float64(NumSlots) / float64(n)
		for addr, got := range ownerCounts(r) {
			dev := (float64(got) - ideal) / ideal
			if dev < -0.15 || dev > 0.15 {
				t.Errorf("n=%d: node %s owns %d slots, ideal %.0f (%.1f%% off)",
					n, addr, got, ideal, dev*100)
			}
		}
	}
}

// TestMinimalMovementOnAdd pins consistent hashing's defining property:
// growing an n-node ring by one moves fewer than 1/n of the slots, and
// every moved slot lands on the new node (no unrelated churn).
func TestMinimalMovementOnAdd(t *testing.T) {
	for n := 3; n <= 8; n++ {
		before := BuildRing(testTable(n))
		grown := AddNode(testTable(n), ipc.ClusterNode{Addr: "10.0.9.9:6380", Peer: "10.0.9.9:16380"})
		after := BuildRing(grown)
		moved := 0
		for s := 0; s < NumSlots; s++ {
			if before.Owner(s) != after.Owner(s) {
				moved++
				if after.Owner(s) != "10.0.9.9:6380" {
					t.Fatalf("n=%d: slot %d moved %s -> %s, not to the new node",
						n, s, before.Owner(s), after.Owner(s))
				}
			}
		}
		if moved == 0 || moved >= NumSlots/n {
			t.Errorf("n=%d: add moved %d slots, want (0, %d)", n, moved, NumSlots/n)
		}
	}
}

// TestMinimalMovementOnRemove: shrinking the ring reassigns only the
// dead node's slots; every surviving node keeps everything it had.
func TestMinimalMovementOnRemove(t *testing.T) {
	for n := 4; n <= 9; n++ {
		tab := testTable(n)
		victim := tab.Nodes[n/2].Addr
		before := BuildRing(tab)
		after := BuildRing(RemoveNode(tab, victim))
		moved := 0
		for s := 0; s < NumSlots; s++ {
			ob, oa := before.Owner(s), after.Owner(s)
			if ob == victim {
				moved++
				continue
			}
			if ob != oa {
				t.Fatalf("n=%d: slot %d owned by survivor %s moved to %s", n, s, ob, oa)
			}
		}
		if ideal := float64(NumSlots) / float64(n); float64(moved) > ideal*1.15 {
			t.Errorf("n=%d: remove moved %d slots, ideal %.0f", n, moved, ideal)
		}
	}
}

// TestReplicaBecomesOwnerOnFailure pins the failover property that
// makes acked replicated writes survive an owner crash: for every slot,
// the replica is a distinct node, and removing the owner promotes
// exactly that replica to owner.
func TestReplicaBecomesOwnerOnFailure(t *testing.T) {
	tab := testTable(5)
	r := BuildRing(tab)
	rebuilt := make(map[string]*Ring)
	for s := 0; s < NumSlots; s++ {
		owner, rep := r.Owner(s), r.Replica(s)
		if rep == "" || rep == owner {
			t.Fatalf("slot %d: replica %q invalid (owner %s)", s, rep, owner)
		}
		after, ok := rebuilt[owner]
		if !ok {
			after = BuildRing(RemoveNode(tab, owner))
			rebuilt[owner] = after
		}
		if got := after.Owner(s); got != rep {
			t.Fatalf("slot %d: owner %s died, new owner %s but replica was %s", s, owner, got, rep)
		}
	}
}

// TestSingleNodeRing: a solo ring owns everything and has no replica.
func TestSingleNodeRing(t *testing.T) {
	r := BuildRing(testTable(1))
	for _, s := range []int{0, 1, NumSlots / 2, NumSlots - 1} {
		if r.Owner(s) != "10.0.0.1:6380" {
			t.Fatalf("slot %d owner = %q", s, r.Owner(s))
		}
		if r.Replica(s) != "" {
			t.Fatalf("slot %d replica = %q, want none", s, r.Replica(s))
		}
	}
}

// TestSlotForKeyStable pins the key hash so routing never silently
// changes across versions (persisted clusters depend on it).
func TestSlotForKeyStable(t *testing.T) {
	for _, key := range []string{"", "a", "hello", "user:1000"} {
		if got, want := SlotForKey(key), SlotForKey([]byte(key)); got != want {
			t.Fatalf("SlotForKey(%q) = %d, bytes variant %d", key, got, want)
		}
		if s := SlotForKey(key); s < 0 || s >= NumSlots {
			t.Fatalf("SlotForKey(%q) = %d out of range", key, s)
		}
	}
	if SlotForKey("hello") == SlotForKey("world") && SlotForKey("a") == SlotForKey("b") {
		t.Fatal("suspiciously colliding slot hash")
	}
	// The claim check hashes parser-owned bytes once per command.
	key := []byte("user:1000")
	if n := testing.AllocsPerRun(100, func() { _ = SlotForKey(key) }); n != 0 {
		t.Fatalf("SlotForKey([]byte) allocates %v times", n)
	}
}

// TestMergeBasics covers the version/tie-break rules directly.
func TestMergeBasics(t *testing.T) {
	a := testTable(3)
	b := AddNode(a, ipc.ClusterNode{Addr: "10.0.0.4:6380", Peer: "10.0.0.4:16380"})
	if got := Merge(a, b); got.Version != b.Version || len(got.Nodes) != 4 {
		t.Fatalf("higher version lost: %+v", got)
	}
	if got := Merge(b, a); got.Version != b.Version || len(got.Nodes) != 4 {
		t.Fatalf("merge not commutative on version: %+v", got)
	}
	if got := Merge(a, a); tableHash(got) != tableHash(a) {
		t.Fatalf("merge not idempotent")
	}
	// Equal versions, different content: both sides must deterministically
	// agree on one winner.
	c := testTable(3)
	c.Nodes[0].Addr = "10.9.9.9:6380"
	x, y := Merge(a, c), Merge(c, a)
	if tableHash(x) != tableHash(y) {
		t.Fatalf("equal-version tie-break diverges: %v vs %v", x, y)
	}
}

// FuzzTableMerge drives the routing-table conflict resolver with
// arbitrary version/membership pairs, asserting the properties gossip
// convergence rests on: commutativity, idempotence, and that the result
// is always one of the inputs (Merge never invents a third table).
func FuzzTableMerge(f *testing.F) {
	f.Add(uint64(1), uint64(1), 3, 4, false, false)
	f.Add(uint64(5), uint64(2), 1, 9, true, false)
	f.Add(uint64(7), uint64(7), 2, 2, true, true)
	f.Fuzz(func(t *testing.T, va, vb uint64, na, nb int, mutateA, mutateB bool) {
		if na < 1 || na > 16 || nb < 1 || nb > 16 {
			t.Skip()
		}
		a, b := testTable(na), testTable(nb)
		a.Version, b.Version = va, vb
		if mutateA {
			a.Nodes[0].Addr = "10.8.8.8:6380"
		}
		if mutateB {
			b.Nodes[nb-1].Addr = "10.7.7.7:6380"
		}
		a, b = Normalize(a), Normalize(b)

		ab, ba := Merge(a, b), Merge(b, a)
		if ab.Version != ba.Version || tableHash(ab) != tableHash(ba) {
			t.Fatalf("not commutative: Merge(a,b)=%+v Merge(b,a)=%+v", ab, ba)
		}
		if aa := Merge(a, a); aa.Version != a.Version || tableHash(aa) != tableHash(a) {
			t.Fatalf("not idempotent: %+v vs %+v", aa, a)
		}
		if !(ab.Version == a.Version && tableHash(ab) == tableHash(a)) &&
			!(ab.Version == b.Version && tableHash(ab) == tableHash(b)) {
			t.Fatalf("result is neither input: %+v", ab)
		}
		// And the winner must survive a re-merge (stability).
		if again := Merge(ab, a); tableHash(again) != tableHash(ab) {
			t.Fatalf("unstable: re-merging the winner changed it")
		}
	})
}
