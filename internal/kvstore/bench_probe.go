package kvstore

import (
	"bufio"
	"bytes"
	"io"
)

// Alloc probes: closures exercising the steady-state RESP parse and
// reply paths, shaped for testing.AllocsPerRun and for bench/ladder.go's
// parse_ns/reply_ns rungs, without this package importing testing. Each
// closure owns pre-warmed reusable state; calls after the first perform
// no heap allocation.

// ParseProbe returns a closure that parses one pipelined SET+GET batch
// with a reusable cmdReader.
func ParseProbe() func() {
	payload := appendCommand(nil, "SET", "probe:key", "probe-value-0123456789")
	payload = appendCommand(payload, "GET", "probe:key")
	rd := bytes.NewReader(payload)
	cr := newCmdReader(bufio.NewReader(rd))
	return func() {
		rd.Reset(payload)
		cr.lr.r.Reset(rd)
		for {
			if _, err := cr.ReadCommand(); err != nil {
				if err != io.EOF {
					panic(err)
				}
				return
			}
		}
	}
}

// ReplyProbe returns a closure that writes one OK + integer + bulk
// reply set with a reusable respWriter.
func ReplyProbe() func() {
	rw := newRespWriter(bufio.NewWriterSize(io.Discard, 4096))
	bulk := []byte("probe-value-0123456789")
	return func() {
		rw.simple("OK")
		rw.integer(1234567)
		rw.bulk(bulk)
		if err := rw.flush(); err != nil {
			panic(err)
		}
	}
}
