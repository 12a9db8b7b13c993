package softmem

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The scaffold every process-spawning test of this package shares (the
// chaos-tagged ones too: this file carries no build tag): build a binary,
// pick an address, start a child, wait for it to accept.

// binDir holds the binaries binary builds; TestMain removes it.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "softmem-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// bins maps a ./cmd/<name> to its built binary. The lock is held across
// a build, so each is built once per test process.
var bins = struct {
	sync.Mutex
	path map[string]string
}{path: map[string]string{}}

// binary returns the path of ./cmd/<name>, building it on first use.
func binary(t *testing.T, name string) string {
	t.Helper()
	bins.Lock()
	defer bins.Unlock()
	if path, ok := bins.path[name]; ok {
		return path
	}
	path := filepath.Join(binDir, name)
	if msg, err := exec.Command("go", "build", "-o", path, "./cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, msg)
	}
	bins.path[name] = path
	return path
}

// freeAddr returns a loopback address nothing listens on right now. It is
// released before the caller's child binds it, so another process can take
// it in between; startServing retries over that.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitTCP blocks until addr accepts connections.
func waitTCP(t *testing.T, addr string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			return
		}
	}
	t.Fatalf("nothing listening on %s", addr)
}

// startProc starts bin with its output on the test's stderr; the test's
// cleanup kills and reaps it.
func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	return cmd
}

// childLog collects a child's stderr while the test polls it.
type childLog struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *childLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *childLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// await reports whether line appeared in the log (true) before the child
// exited or 30 s passed (false).
func (l *childLog) await(line string, exited <-chan struct{}) bool {
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if strings.Contains(l.String(), line) {
			return true
		}
		select {
		case <-exited:
			return false
		case <-time.After(20 * time.Millisecond):
		}
	}
	return false
}

// startServing starts bin on n fresh addresses, which args turns into its
// command line, and returns them once the child has logged ready — the
// line it prints after its last bind, so every address is then its own (a
// dial would also succeed against whoever took the address instead). A
// child that lost an address to another process exits with "address
// already in use"; the start is then retried on new addresses. The
// child's stderr is logged if the test fails.
func startServing(t *testing.T, bin, ready string, n int, args func(addrs []string) []string) []string {
	t.Helper()
	for attempt := 0; attempt < 5; attempt++ {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = freeAddr(t)
		}
		var stderr childLog
		cmd := exec.Command(bin, args(addrs)...)
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", bin, err)
		}
		exited := make(chan struct{})
		go func() {
			_ = cmd.Wait()
			close(exited)
		}()
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			<-exited
			if t.Failed() {
				t.Logf("%s stderr:\n%s", filepath.Base(bin), stderr.String())
			}
		})
		if stderr.await(ready, exited) {
			return addrs
		}
		if !strings.Contains(stderr.String(), "address already in use") {
			t.Fatalf("%s did not come up:\n%s", bin, stderr.String())
		}
	}
	t.Fatalf("%s: address already in use on every attempt", bin)
	return nil
}
