package sds

import (
	"softmem/internal/alloc"
	"softmem/internal/core"
)

// readAlloc returns an allocation's contents for decoding: zero-copy
// when the value sits in one segment (the common case), assembled into a
// fresh slice when it spans pages — which Tx.Bytes refuses, so any SDS
// holding values above 1 KiB must read through this instead.
// The result is only valid inside the current locked section.
func readAlloc(tx *core.Tx, ref alloc.Ref) ([]byte, error) {
	if b, err := tx.Bytes(ref); err == nil {
		return b, nil
	}
	return tx.Append(nil, ref)
}
