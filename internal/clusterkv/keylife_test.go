package clusterkv

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"testing"

	"softmem/internal/faultinject"
)

// TestReplicationQueueKeepsKeys pins OnApply's copy of the key. A write's
// key reaches the hook as a string aliasing the connection's arena, which
// the server reuses for the next batch, while the write's replEntry
// waits in the replica's queue — here for as long as the partition fault
// severs the link. After a second batch of same-length keys through the
// same connection, the queue must still name the original keys, at
// depth 1 and at depth 16.
func TestReplicationQueueKeepsKeys(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Arm("clusterkv.replicate.partition:always:drop"); err != nil {
		t.Fatal(err)
	}
	nodes := startCluster(t, 2)
	owner, replica := nodes[0], nodes[1].addr
	ring := owner.node.Ring()
	ownedKeys := func(prefix string) []string {
		var keys []string
		for i := 0; len(keys) < 16; i++ {
			if k := fmt.Sprintf("%s-%04d", prefix, i); ring.Owner(SlotForKey(k)) == owner.addr {
				keys = append(keys, k)
			}
		}
		return keys
	}
	queued := func() []string {
		r := owner.node.repl
		r.mu.Lock()
		s := r.senders[replica]
		r.mu.Unlock()
		if s == nil {
			return nil
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		var keys []string
		for _, e := range s.queue {
			keys = append(keys, e.key)
		}
		return keys
	}
	for _, depth := range []int{1, 16} {
		conn, err := net.Dial("tcp", owner.addr)
		if err != nil {
			t.Fatal(err)
		}
		rd := bufio.NewReader(conn)
		set := func(keys []string) {
			for lo := 0; lo < len(keys); lo += depth {
				var req []byte
				for _, k := range keys[lo : lo+depth] {
					req = fmt.Appendf(req, "*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$1\r\nv\r\n", len(k), k)
				}
				if _, err := conn.Write(req); err != nil {
					t.Fatal(err)
				}
				for range depth {
					if line, err := rd.ReadString('\n'); err != nil || line != "+OK\r\n" {
						t.Fatalf("SET replied %q, %v", line, err)
					}
				}
			}
		}
		keep, junk := ownedKeys(fmt.Sprintf("keep%02d", depth)), ownedKeys(fmt.Sprintf("junk%02d", depth))
		before := len(queued())
		set(keep)
		set(junk)
		conn.Close()
		if got, want := queued()[before:], append(keep, junk...); !slices.Equal(got, want) {
			t.Fatalf("depth %d: the replication queue holds %q, want %q", depth, got, want)
		}
	}
}
