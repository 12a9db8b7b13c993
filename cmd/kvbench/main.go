// Command kvbench is a RESP load generator: it drives a YCSB-style
// workload against a softkv server and prints throughput, hit rate, and
// latency percentiles — the client-visible view of soft memory
// reclamation (GETs of reclaimed entries miss; the cache refills from
// the "database"). It is an operator's tool, not a source of performance
// claims: those come from `bash bench/run.sh` / `make bench-pair`.
//
// Usage:
//
//	kvbench -addr 127.0.0.1:6380 -requests 100000 -conns 8 -read 0.9
//	kvbench -inproc -conns 4 -pipeline 1,16 -read 0.5
//
// Flags:
//
//	-addr      softkv server address
//	-conns     concurrent connections
//	-requests  total operations per pipeline depth
//	-read      GET fraction (the rest are SETs)
//	-keys      keyspace size
//	-skew      Zipf skew (> 1)
//	-value     value size in bytes
//	-seed      workload seed
//	-pipeline  comma-separated pipeline depths; each runs the full workload
//	-inproc    serve from a loopback server in this process, backed by an
//	           unlimited soft-memory store, instead of -addr
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"softmem/internal/core"
	"softmem/internal/kvstore"
	"softmem/internal/pages"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:6380", "softkv server address")
		conns    = flag.Int("conns", 4, "concurrent connections")
		reqs     = flag.Int("requests", 100000, "total operations")
		read     = flag.Float64("read", 0.9, "GET fraction (rest are SETs)")
		keys     = flag.Uint64("keys", 10000, "keyspace size")
		skew     = flag.Float64("skew", 1.2, "Zipf skew (>1)")
		value    = flag.Int("value", 256, "value size in bytes")
		seed     = flag.Int64("seed", 1, "workload seed")
		pipeline = flag.String("pipeline", "1", "comma-separated pipeline depths to run (1 = no pipelining)")
		inproc   = flag.Bool("inproc", false, "drive an in-process loopback server instead of -addr")
	)
	flag.Parse()

	depths, err := parseDepths(*pipeline)
	if err != nil {
		log.Fatalf("kvbench: %v", err)
	}

	target := *addr
	if *inproc {
		store := kvstore.New(core.New(core.Config{Machine: pages.NewPool(0)}))
		defer store.Close()
		srv := kvstore.NewServer(store, func(string, ...any) {})
		bound, err := srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("kvbench: inproc listen: %v", err)
		}
		go func() { _ = srv.Serve() }()
		defer srv.Close()
		target = bound.String()
	}

	for _, depth := range depths {
		res, err := kvstore.RunLoad(kvstore.LoadGenConfig{
			Addr:         target,
			Conns:        *conns,
			Requests:     *reqs,
			ReadFraction: *read,
			Keys:         *keys,
			Skew:         *skew,
			ValueBytes:   *value,
			Pipeline:     depth,
			Seed:         *seed,
		})
		if err != nil {
			log.Fatalf("kvbench: pipeline=%d: %v", depth, err)
		}
		fmt.Printf("pipeline=%d ", depth)
		res.Fprint(os.Stdout)
	}
}

func parseDepths(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -pipeline depth %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-pipeline needs at least one depth")
	}
	return out, nil
}
